import dataclasses
import logging
import re

import numpy as np
import pytest

from logperiodic import (
    FilterConfig,
    InsufficientHistoryError,
    PriceSeries,
    SearchConfig,
    SynthSpec,
    ValidationError,
    WindowScheme,
    confidence_at,
    fit,
    generate,
    qualify,
    scan,
    window_seed,
    windows_for,
)
from logperiodic import indicator
from conftest import FAST_SEARCH, SMALL_SCHEME, bubble_params


def test_default_scheme_yields_125_windows():
    scheme = WindowScheme(650, 30, 5)
    assert scheme.count == 125
    windows = windows_for(1000, scheme)
    assert len(windows) == 125
    assert windows[0].length == 650
    assert windows[-1].length == 30
    assert all(w.t2 == 1000 for w in windows)
    lengths = [w.length for w in windows]
    assert lengths == list(range(650, 29, -5))


def test_degenerate_scheme_single_window():
    scheme = WindowScheme(30, 30, 5)
    assert scheme.count == 1
    assert [w.length for w in windows_for(40, scheme)] == [30]


def test_insufficient_history_rejected():
    with pytest.raises(InsufficientHistoryError):
        windows_for(100, WindowScheme(650, 30, 5))
    # t2 = 649 is the first valid endpoint for a 650-long window
    assert windows_for(649, WindowScheme(650, 30, 5))[0].t1 == 0


def test_scheme_validation():
    with pytest.raises(ValidationError, match="^min_len must be >= 8, got 7$"):
        WindowScheme(650, 7, 5)
    with pytest.raises(ValidationError, match="^step must be >= 1, got 0$"):
        WindowScheme(650, 30, 0)
    with pytest.raises(ValidationError):
        WindowScheme(30, 650, 5)
    with pytest.raises(ValidationError):
        WindowScheme(650, 30, 7)  # 620 not divisible by 7


@pytest.mark.parametrize("name, value", [("max_len", 650.5), ("min_len", 30.0), ("step", "x")])
def test_scheme_lengths_must_be_integers(name, value):
    # step 'x' died on a bare TypeError; 650.5 was named only as indivisible
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
        WindowScheme(**{name: value})


def test_endpoints_must_be_integers():
    # each was truncated: t2 = 659.5 to 659, a scan step of 1.5 to 1
    with pytest.raises(ValidationError, match="t2 must be an integer, got 659.5"):
        windows_for(659.5, WindowScheme(650, 30, 5))
    series = PriceSeries(np.exp(np.linspace(1.0, 2.0, 200)), None, 1)
    scheme = WindowScheme(60, 30, 15)
    with pytest.raises(ValidationError, match="t2 must be an integer, got 100.5"):
        confidence_at(series, 100.5, scheme, FAST_SEARCH)
    for args, name in (((100.5, 101), "t2_first"), ((100, 101.0), "t2_last"),
                       ((100, 101, 1.5), "t2_step")):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            scan(series, *args, scheme=scheme, search_cfg=FAST_SEARCH, workers=1)


@pytest.mark.parametrize("workers, message", [
    (2.5, "workers must be an integer, got 2.5"), ("2", "workers must be an integer, got '2'"),
    (0, "workers must be >= 1, got 0"), (-3, "workers must be >= 1, got -3"),
])
def test_workers_must_be_positive_integers(workers, message):
    # 2.5 and '2' died on a bare TypeError in a pooled run; 0 and -3 ran serially
    series = PriceSeries(np.exp(np.linspace(1.0, 2.0, 200)), None, 1)
    scheme = WindowScheme(60, 30, 15)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        confidence_at(series, 100, scheme, FAST_SEARCH, workers=workers)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        scan(series, 100, 101, scheme=scheme, search_cfg=FAST_SEARCH, workers=workers)


def test_window_seed_stable_and_distinct():
    assert window_seed(42, 100, 30) == window_seed(42, 100, 30)
    seeds = {window_seed(42, t2, length) for t2 in (100, 101) for length in (30, 35)}
    assert len(seeds) == 4
    assert window_seed(43, 100, 30) != window_seed(42, 100, 30)


@pytest.mark.parametrize("args, name", [
    ((1.5, 100, 60), "base_seed"), ((1, 100.9, 60), "t2"), ((1, 100, "60"), "length"),
])
def test_window_seed_arguments_must_be_integers(args, name):
    # 1.5 and 100.9 were truncated: window_seed(1.5, 100, 60) == window_seed(1, 100, 60)
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        window_seed(*args)


@pytest.mark.parametrize("args, name", [
    ((-1, 100, 60), "base_seed"), ((1, -100, 60), "t2"), ((1, 100, -60), "length"),
])
def test_window_seed_arguments_must_not_be_negative(args, name):
    # numpy's SeedSequence raised a bare ValueError that named no argument
    with pytest.raises(ValidationError, match=f"{name} must be >= 0, got -"):
        window_seed(*args)


@pytest.fixture(scope="module")
def bubble_series():
    params = bubble_params(430.0, 0.5, 8.0, B=-0.8)
    return generate(
        SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4)
    )


def test_confidence_at_counts_and_diagnostics(bubble_series):
    pt = confidence_at(
        bubble_series, 419, SMALL_SCHEME, FAST_SEARCH, FilterConfig(),
        base_seed=42,
    )
    assert pt.windows_total == SMALL_SCHEME.count == 5
    assert pt.windows_qualified_pos + pt.windows_qualified_neg <= pt.windows_total
    assert pt.windows_qualified_pos >= 1  # strong bubble must register
    assert len(pt.diagnostics) == pt.windows_total
    from logperiodic import BubbleSign

    pos = sum(1 for o in pt.diagnostics if o.report.qualified and o.report.sign is BubbleSign.POSITIVE)
    assert pos == pt.windows_qualified_pos
    assert pt.positive_ci == pt.windows_qualified_pos / 5
    assert float(pt.positive_ci_fraction) == pt.positive_ci


def test_confidence_at_causal_truncation(bubble_series):
    full = confidence_at(bubble_series, 400, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    truncated = confidence_at(
        bubble_series.truncate(400), 400, SMALL_SCHEME, FAST_SEARCH, base_seed=42
    )
    assert full == truncated


def test_confidence_at_parallel_equals_serial(bubble_series):
    serial = confidence_at(bubble_series, 419, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    parallel = confidence_at(
        bubble_series, 419, SMALL_SCHEME, FAST_SEARCH, base_seed=42, workers=2
    )
    assert serial == parallel


@pytest.fixture(scope="module")
def short_bubble():
    """120 points of the bubble above, its tc moved to 10 steps past the end."""
    params = bubble_params(130.0, 0.5, 8.0, B=-0.8)
    return generate(SynthSpec(params=params, n=120, noise_sigma=0.004, seed=11, noise_phi=0.4))


def test_metrics_not_computed_keep_equal_points_equal(short_bubble):
    # windows under 12 points get no AR(1) coefficient; a nan there made every
    # point that held one unequal to itself
    scheme, search = WindowScheme(11, 9, 1), SearchConfig(max_evaluations=200, restarts=1)
    point = confidence_at(short_bubble, 119, scheme, search)
    assert point == confidence_at(short_bubble, 119, scheme, search)
    reports = [o.report for o in point.diagnostics if o.report is not None]
    assert reports and all(r.ar1_coefficient is None for r in reports)


def test_scan_with_short_windows_is_equal_on_the_pool(short_bubble):
    # 32 windows make two chunks, so workers=2 runs them on the pool; the
    # windows under 12 points come back from it with no AR(1) coefficient
    scheme, search = WindowScheme(40, 9, 1), SearchConfig(max_evaluations=200, restarts=1)
    runs = [scan(short_bubble, 119, 119, 1, scheme, search, workers=workers) for workers in (1, 2)]
    assert len(runs[0][0].diagnostics) == 32
    assert runs[0] == runs[1]


def test_failed_fits_count_as_unqualified_and_keep_the_denominator(bubble_series):
    # A damping floor no candidate can meet makes every window's fit fail.
    failing = SearchConfig(damping_floor=1e12, max_evaluations=100, restarts=1)
    pt = confidence_at(bubble_series, 419, SMALL_SCHEME, failing, base_seed=42)
    assert (pt.windows_total, pt.windows_qualified_pos, pt.windows_qualified_neg) == (
        SMALL_SCHEME.count, 0, 0)
    assert len(pt.diagnostics) == SMALL_SCHEME.count
    for outcome in pt.diagnostics:
        assert outcome.report is None and outcome.cost == float("inf")
        assert outcome.error.startswith("no admissible fit")
    # two endpoints make two tasks, so workers=2 runs the failures on the pool
    runs = [scan(bubble_series, 409, 419, 10, SMALL_SCHEME, failing, base_seed=42, workers=workers)
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    assert [(p.t2, p.windows_total, p.positive_ci, p.negative_ci) for p in runs[0]] == [
        (409, SMALL_SCHEME.count, 0.0, 0.0), (419, SMALL_SCHEME.count, 0.0, 0.0)]
    with pytest.raises(ValidationError, match="outside series"):
        confidence_at(bubble_series, len(bubble_series), SMALL_SCHEME, failing)


def test_scan_single_point_matches_confidence_at(bubble_series):
    single = scan(bubble_series, 419, 419, 1, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    assert len(single) == 1
    assert single[0] == confidence_at(bubble_series, 419, SMALL_SCHEME, FAST_SEARCH, base_seed=42)


def test_scan_three_points_ordered(bubble_series):
    pts = scan(bubble_series, 400, 402, 1, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    assert [p.t2 for p in pts] == [400, 401, 402]


def test_scan_skips_short_history(bubble_series, caplog):
    with caplog.at_level(logging.WARNING, logger="logperiodic.indicator"):
        pts = scan(bubble_series, 110, 125, 5, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    # max_len 120: endpoints 110 and 115 lack history, 120 and 125 are fine
    assert [p.t2 for p in pts] == [120, 125]
    # one record for the scan, naming how many endpoints it skipped and which
    (record,) = [r for r in caplog.records if "skipping" in r.message]
    assert record.getMessage() == ("skipping 2 endpoints, 110 to 115: "
                                   "fewer than 120 points of history")


def test_scan_with_skipped_endpoints_matches_confidence_at(bubble_series):
    # Endpoint 15 is skipped; 215 (no window qualifies) and 415 (three do)
    # share one parallel task list, so a slice shifted by one window moves
    # a qualified outcome from 415 into 215 and breaks the equality.
    pts = scan(bubble_series, 15, 415, 200, SMALL_SCHEME, FAST_SEARCH, base_seed=42, workers=2)
    expected = [
        confidence_at(bubble_series, t2, SMALL_SCHEME, FAST_SEARCH, base_seed=42, workers=1)
        for t2 in (215, 415)
    ]
    assert [p.windows_qualified_pos for p in expected] == [0, 3]
    assert pts == expected


def test_pool_starts_no_more_processes_than_tasks(bubble_series, pool_sizes):
    search = SearchConfig(max_evaluations=100, restarts=1)
    # SMALL_SCHEME's 5 windows make one task per endpoint: 3 endpoints, 3 tasks
    runs = [scan(bubble_series, 399, 419, 10, SMALL_SCHEME, search, base_seed=42, workers=workers)
            for workers in (1, 2, 5000)]
    assert pool_sizes == [2, 3]
    assert runs[0] == runs[1] == runs[2]


def test_chunked_outcomes_equal_per_window_fits(bubble_series):
    # 18 windows per endpoint make two chunks of 9, below the chunk cap, and
    # the two endpoints make four tasks, so workers=2 runs them on the pool.
    scheme = WindowScheme(200, 30, 10)
    search = SearchConfig(max_evaluations=300, restarts=2)
    assert scheme.count % indicator._CHUNK != 0
    runs = [indicator._points(bubble_series, [300, 419], scheme, search, FilterConfig(), 42, workers)
            for workers in (1, 2)]
    assert runs[0] == runs[1]
    for point in runs[0]:
        assert [o.window for o in point.diagnostics] == windows_for(point.t2, scheme)
        for o in point.diagnostics:
            result = fit(bubble_series, o.window,
                         search.with_seed(window_seed(42, point.t2, o.window.length)))
            assert (o.cost, o.report) == (result.cost, qualify(result, bubble_series, o.window))


def test_chunks_cover_windows_in_order_with_balanced_sizes():
    for count in range(1, 4 * indicator._CHUNK + 2):
        windows = windows_for(1000, WindowScheme(30 + 5 * (count - 1), 30, 5))
        chunks = indicator._chunks(windows)
        sizes = [len(c) for c in chunks]
        assert [w for c in chunks for w in c] == windows
        assert len(chunks) == -(-count // indicator._CHUNK)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= indicator._CHUNK
    assert [len(c) for c in indicator._chunks(list(range(21)))] == [10, 11]
    assert [len(c) for c in indicator._chunks(list(range(11)))] == [11]


def test_scan_rejects_bad_ranges(bubble_series):
    with pytest.raises(ValidationError):
        scan(bubble_series, 200, 100, 1, SMALL_SCHEME, FAST_SEARCH, base_seed=1)
    with pytest.raises(ValidationError, match="^t2_step must be >= 1, got 0$"):
        scan(bubble_series, 100, 200, 0, SMALL_SCHEME, FAST_SEARCH, base_seed=1)
    with pytest.raises(ValidationError):
        scan(bubble_series, 100, 10_000, 1, SMALL_SCHEME, FAST_SEARCH, base_seed=1)
    with pytest.raises(ValidationError, match="base_seed"):
        scan(bubble_series, 150, 150, 1, SMALL_SCHEME, FAST_SEARCH, base_seed=-1)
    with pytest.raises(ValidationError, match="base_seed"):
        confidence_at(bubble_series, 150, SMALL_SCHEME, FAST_SEARCH, base_seed=-1)


def test_pure_exponential_has_zero_indicator():
    t = np.arange(300, dtype=float)
    s = PriceSeries(np.exp(5.0 + 0.002 * t), None, 1)
    pt = confidence_at(s, 299, SMALL_SCHEME, FAST_SEARCH, base_seed=7)
    assert pt.windows_qualified_pos == 0
    assert pt.windows_qualified_neg == 0


def test_negative_bubble_mirrors_to_negative_ci():
    params = bubble_params(430.0, 0.5, 8.0, B=-0.8)
    mirror = dataclasses.replace(params, B=-params.B, C1=-params.C1, C2=-params.C2)
    s = generate(SynthSpec(params=mirror, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
    pt = confidence_at(s, 419, SMALL_SCHEME, FAST_SEARCH, base_seed=42)
    assert pt.windows_qualified_neg >= 1
    assert pt.windows_qualified_pos == 0


def test_removing_windows_bounds_ci_shift(bubble_series):
    # Per-window seeds depend on (base_seed, t2, length) only, so dropping
    # scheme windows leaves the remaining outcomes untouched and the CI can
    # move by at most (removed count) / windows_total before renormalizing.
    full_scheme = WindowScheme(120, 40, 20)      # lengths 120..40
    sub_scheme = WindowScheme(120, 60, 20)       # drops the length-40 window
    full = confidence_at(bubble_series, 419, full_scheme, FAST_SEARCH, base_seed=42)
    sub = confidence_at(bubble_series, 419, sub_scheme, FAST_SEARCH, base_seed=42)
    shared_full = {o.window.length: (o.report.qualified, o.report.sign) for o in full.diagnostics
                   if o.window.length >= 60}
    shared_sub = {o.window.length: (o.report.qualified, o.report.sign) for o in sub.diagnostics}
    assert shared_full == shared_sub
    removed = full_scheme.count - sub_scheme.count
    assert abs(full.positive_ci - sub.windows_qualified_pos / full_scheme.count) \
        <= removed / full_scheme.count


def test_scan_peak_near_implanted_bubble_end(bubble_series):
    # implant: bubble up to T=419, then 60 declining post-crash points
    rng = np.random.default_rng(99)
    post = bubble_series.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(60))
    full = PriceSeries(np.exp(np.concatenate([bubble_series.log_prices, post])), None, 1)
    pts = scan(full, 395, 445, 5, SMALL_SCHEME, FAST_SEARCH, base_seed=42, workers=2)
    best = max(pts, key=lambda p: (p.positive_ci, -p.t2))
    assert best.positive_ci > 0
    assert abs(best.t2 - 419) <= 5
