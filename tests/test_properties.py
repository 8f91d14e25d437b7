"""Hypothesis properties of the series layer, the cost kernel, the periodogram and the indicator."""

import datetime as _dt
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from logperiodic import (  # noqa: E402
    DegenerateBasisError, DomainError, PriceSeries, SearchConfig, SynthSpec, ValidationError,
    Window, WindowScheme, confidence_at, cost, generate, linear_solve, resample, scan,
)
from logperiodic.calibrate import _Layout, _ldl, _ldl_solve, _objective, _window_arrays  # noqa: E402
from logperiodic.qualify import _lomb_power  # noqa: E402
from conftest import bubble_params  # noqa: E402
from oracles import ldl_by_rows, residual_sum_of_squares, svd_least_squares  # noqa: E402

NOISY = generate(SynthSpec(params=bubble_params(420.0, 0.5, 10.0), n=400, noise_sigma=0.02, seed=17))
LONG = generate(SynthSpec(params=bubble_params(700.0, 0.5, 10.0), n=680, noise_sigma=0.02, seed=17))

# Three windows and a small budget: the determinism properties hold for
# any scheme, and every example runs whole scans.
TINY_SCHEME = WindowScheme(max_len=60, min_len=30, step=15)
TINY_SEARCH = SearchConfig(max_evaluations=300, restarts=2)

# Row kinds of a mixed kernel batch: admissible, tc at or before the window
# end, m ~ 0 (power-law column collinear with the intercept), and m so large
# that (tc - t)^m overflows.
ROW_KINDS = ("admissible", "tc-not-past-end", "degenerate", "overflow")
# (tc offset from the window end, m, omega) of one row
ROW = st.tuples(
    st.floats(min_value=0.5, max_value=40.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.5, max_value=45.0),
)


def _kernel(t, y, points):
    """The kernel on rows that all belong to the window (t, y), and its admissible mask."""
    beta, sse = _Layout([(t, y)], [(0, 0, len(points))]).profile(points)
    return beta, sse, np.isfinite(sse)


def _batch(w, rows):
    """(k, 3) kernel batch from (kind, tc offset, m, omega) rows."""
    return np.array([
        (
            w.t2 - offset + 0.5 if kind == "tc-not-past-end" else w.t2 + offset,
            {"degenerate": 1e-12, "overflow": 400.0}.get(kind, m),
            omega,
        )
        for kind, offset, m, omega in rows
    ])


@given(n=st.integers(min_value=2, max_value=400), stride=st.integers(min_value=1, max_value=60))
def test_resample_keeps_last_point_and_ceil_length(n, stride):
    s = PriceSeries(100.0 + np.arange(n, dtype=float), None, 1)
    if math.ceil(n / stride) < 2:
        with pytest.raises(ValidationError):
            resample(s, stride)
        return
    out = resample(s, stride)
    assert len(out) == math.ceil(n / stride)
    assert out.prices[-1] == s.prices[-1]
    assert out.stride == stride


@given(stride=st.integers(min_value=2, max_value=30), points=st.integers(min_value=4, max_value=60),
       data=st.data())
def test_resampled_series_is_causal_on_its_own_grid_only(stride, points, data):
    # cut the daily series at the day of a coarse point: the coarse series of what is
    # left is the full coarse series up to that point. Cut it on any other day and
    # the grid shifts: not one coarse point of the cut series is one of the full's
    n = (points - 1) * stride + 1 + data.draw(st.integers(0, stride - 1), label="days before")
    first = _dt.date(2001, 1, 1)
    daily = PriceSeries(100.0 + np.arange(n, dtype=float),
                        tuple(first + _dt.timedelta(days=i) for i in range(n)), 1)
    coarse = resample(daily, stride)
    k = data.draw(st.integers(1, points - 3), label="coarse points cut")
    on_grid = resample(daily.truncate(n - 1 - k * stride), stride)
    assert on_grid == PriceSeries(coarse.prices[:-k], coarse.dates[:-k], stride)
    shift = data.draw(st.integers(1, stride - 1), label="days off the grid")
    off_grid = resample(daily.truncate(n - 1 - k * stride - shift), stride)
    assert not np.isin(off_grid.prices, coarse.prices).any()


@settings(max_examples=60, deadline=None)
@given(
    t1=st.integers(min_value=0, max_value=300),
    length=st.integers(min_value=20, max_value=100),
    rows=st.lists(
        st.tuples(
            st.sampled_from(ROW_KINDS),
            st.floats(min_value=0.5, max_value=40.0),
            st.floats(min_value=0.05, max_value=0.95),
            st.floats(min_value=1.5, max_value=45.0),
        ),
        min_size=1,
        max_size=9,
    ),
)
# Ill-conditioned admissible rows (small omega, distant tc) on which a bare
# normal-equation solve is off by 1e-8 to 2e-8 relative.
@example(t1=1, length=26, rows=[("admissible", 26.0, 0.125, 2.0)])
@example(t1=26, length=26, rows=[("admissible", 37.375, 0.5, 2.507)])
@example(t1=0, length=20, rows=[("admissible", 35.5, 0.25, 1.5)])
@example(t1=214, length=20, rows=[("admissible", 29.0, 0.125, 2.0)])
def test_kernel_batch_rows_equal_their_own_evaluation(t1, length, rows):
    w = Window(t1, min(t1 + length, 399))
    t, y = _window_arrays(NOISY, w)
    points = _batch(w, rows)
    beta, sse, ok = _kernel(t, y, points)
    for k, (kind, *_) in enumerate(rows):
        one_beta, one_sse, one_ok = _kernel(t, y, points[k : k + 1])
        assert ok[k] == one_ok[0]
        if kind != "admissible":
            assert not ok[k]
        if not ok[k]:
            assert sse[k] == np.inf
            continue
        # the search's objective reads this unrefined beta for its damping floor
        np.testing.assert_allclose(beta[k], one_beta[0], rtol=1e-12, atol=0.0)
        assert sse[k] == pytest.approx(one_sse[0], rel=1e-12, abs=0.0)
        # linear_solve takes the refinement step on its one row
        solved = np.array(linear_solve(NOISY, w, *points[k]))
        want = svd_least_squares(t, y, *points[k])
        assert np.max(np.abs(solved - want) / np.maximum(np.abs(want), 1e-10)) <= 1e-8
        for b in (beta[k], solved):
            assert sse[k] == pytest.approx(residual_sum_of_squares(t, y, *points[k], *b), rel=1e-9)


@pytest.mark.parametrize("m", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("omega", [0.0, 8.0])
def test_rows_with_tc_at_or_before_the_window_end_are_rejected(m, omega):
    # ln(tc - t) is -inf or nan at the window end, so the half-angle tangent and
    # with it g and h are nan there: the factor's finiteness test rejects the row
    w = Window(200, 260)
    t, y = _window_arrays(NOISY, w)
    end = float(w.t2)
    points = np.array([[end, m, omega], [np.nextafter(end, 0.0), m, omega], [end + 5.0, 0.5, 8.0]])
    _, sse, ok = _kernel(t, y, points)
    assert ok.tolist() == [False, False, True]
    assert sse[:2].tolist() == [np.inf, np.inf]


# Kinds of 4x4 normal matrices X X^T: full rank; rank 2 (singular); two
# rows of X 1e-4 to 1e-8 apart (pivot ratios about 1e8 to 1e16, on both sides
# of the cap); full rank with an entry, and its mirror, replaced by inf, -inf
# or nan.
GRAM_KINDS = ("spd", "singular", "ill-conditioned", "non-finite")


def _gram(kind, scale, rng):
    """One symmetric 4x4 matrix of a GRAM_KINDS kind, its entries of order 10^scale."""
    x = rng.standard_normal((4, 2 if kind == "singular" else 9)) * 10.0 ** (scale / 2)
    if kind == "ill-conditioned":
        x[3] = x[2] + 10.0 ** -rng.uniform(4.0, 8.0) * x[3]
    gram = x @ x.T
    if kind == "non-finite":
        i, j = rng.integers(0, 4, 2)
        gram[i, j] = gram[j, i] = rng.choice([np.inf, -np.inf, np.nan])
    return gram


@settings(max_examples=60, deadline=None)
@given(
    matrices=st.lists(st.tuples(st.sampled_from(GRAM_KINDS), st.integers(-150, 150)),
                      min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(matrices=[(kind, 0) for kind in GRAM_KINDS], seed=0)
def test_ldl_equals_the_row_by_row_oracle_bit_for_bit(matrices, seed):
    # the column-wise factor must see every entry's operations in the row-by-row
    # order: its pivots, admissible mask and solutions are the oracle's, bits and all
    rng = np.random.default_rng(seed)
    gram = np.array([_gram(kind, scale, rng) for kind, scale in matrices])
    rhs = rng.standard_normal((len(gram), 4)) * 10.0 ** rng.integers(-100, 100, (len(gram), 1))
    # as the kernel lays it out: rows 1-3 and the corner, the first row's other entries unset
    a = np.full((4, 4, len(gram)), np.nan)
    a[0, 0] = gram[:, 0, 0]
    a[1:] = gram[:, 1:].transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        ok = _ldl(a)
        x = _ldl_solve(a, rhs)
        want_d, want_ok, want_x = ldl_by_rows(gram, rhs)
    assert np.array_equal(ok, want_ok)
    for got, want in ((a.diagonal(), want_d), (x, want_x)):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=10, deadline=None)
@given(big=st.lists(ROW, min_size=35, max_size=35), small=st.lists(ROW, min_size=7, max_size=7))
def test_objective_scratch_never_leaks_between_calls(big, small):
    # One closure serves a whole fit: a 7-row call after a 35-row one leaves
    # stale rows in its scratch, and the next 35-row call must not see them.
    w = Window(679 - 649, 679)
    t, y = _window_arrays(LONG, w)
    plain = _objective([(t, y)], SearchConfig(damping_floor=0.0))
    floored = _objective([(t, y)], SearchConfig())
    for rows in (big, small, big):
        points = _batch(w, [(ROW_KINDS[i % len(ROW_KINDS)], *row) for i, row in enumerate(rows)])
        sse = _kernel(t, y, points)[1]
        parts = [(0, 0, len(points))]
        assert np.array_equal(plain(points, parts), sse)
        # the damping floor only rejects rows, the same ones as a fresh closure
        got = floored(points, parts)
        assert np.array_equal(got, _objective([(t, y)], SearchConfig())(points, parts))
        kept = np.isfinite(got)
        assert np.array_equal(got[kept], sse[kept])


# 3-5 windows of unequal lengths over NOISY, as (t1, length, (kind, *ROW) rows),
# each with 0-9 rows of the ROW_KINDS mix
LAYOUT = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=20, max_value=100),
        st.lists(st.tuples(st.sampled_from(ROW_KINDS), ROW).map(lambda r: (r[0], *r[1])), max_size=9),
    ),
    min_size=3,
    max_size=5,
    unique_by=lambda window: min(window[0] + window[1], 399) - window[0],
)


def _layout(windows):
    """(arrays, points, parts) of a LAYOUT draw; a window without rows gets no part, as in the search."""
    arrays, batches, parts = [], [], []
    for p, (t1, length, rows) in enumerate(windows):
        w = Window(t1, min(t1 + length, 399))
        arrays.append(_window_arrays(NOISY, w))
        if rows:
            lo = parts[-1][2] if parts else 0
            batches.append(_batch(w, rows))
            parts.append((p, lo, lo + len(rows)))
    return arrays, np.concatenate([np.empty((0, 3)), *batches]), parts


@settings(max_examples=60, deadline=None)
@given(windows=LAYOUT)
def test_kernel_rows_of_a_flat_layout_equal_their_window_alone(windows):
    # every window's rows share one work array, placed after the rows of the
    # windows before them; no row's bits may depend on where they land
    arrays, points, parts = _layout(windows)
    beta, sse = _Layout(arrays, parts).profile(points)
    ok = np.isfinite(sse)
    for p, lo, hi in parts:
        alone = _kernel(*arrays[p], points[lo:hi])
        assert np.array_equal(beta[lo:hi], alone[0], equal_nan=True)
        assert np.array_equal(sse[lo:hi], alone[1])
        assert np.array_equal(ok[lo:hi], alone[2])


@settings(max_examples=20, deadline=None)
@given(windows=LAYOUT)
def test_objective_work_array_never_leaks_between_layouts(windows):
    # One closure serves a whole chunk: calls over the first window's rows,
    # then all windows', then the last window's, then all again grow, shrink
    # and regrow its work array; each must equal a fresh closure's call.
    arrays, points, parts = _layout(windows)
    floors = (0.0, SearchConfig.damping_floor)
    objectives = [_objective(arrays, SearchConfig(damping_floor=floor)) for floor in floors]
    for chosen in (parts[:1], parts, parts[-1:], parts):
        rows = np.concatenate([np.empty((0, 3)), *(points[lo:hi] for _, lo, hi in chosen)])
        starts = np.cumsum([0, *(hi - lo for _, lo, hi in chosen)]).tolist()
        layout = [(p, lo, hi) for (p, _, _), lo, hi in zip(chosen, starts, starts[1:])]
        for floor, func in zip(floors, objectives):
            fresh = _objective(arrays, SearchConfig(damping_floor=floor))(rows, layout)
            assert np.array_equal(func(rows, layout), fresh)
        assert np.array_equal(objectives[0](rows, layout), _Layout(arrays, layout).profile(rows)[1])


@settings(max_examples=60, deadline=None)
@given(
    t1s=st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300)),
    length=st.integers(min_value=20, max_value=100),
    rows=st.lists(
        st.tuples(
            st.sampled_from(ROW_KINDS),
            st.floats(min_value=0.5, max_value=40.0),
            # down to m = 1e-9, where the power-law column nears the intercept's
            st.floats(min_value=-9.0, max_value=-0.03).map(lambda e: 10.0**e),
            st.floats(min_value=1.0, max_value=45.0),
        ),
        min_size=2,
        max_size=12,
    ),
    split=st.integers(min_value=1, max_value=11),
)
# m = 8.8e-6 puts this row's pivot ratio at 1.03e11, just under the 1e12 cap
@example(t1s=(1, 150), length=100, rows=[("admissible", 39.67, 8.8e-6, 3.79)] * 2, split=1)
def test_rows_the_search_admits_are_rows_the_result_can_solve(t1s, length, rows, split):
    # fit() reports the search's best row through linear_solve's path: a row
    # with a finite objective value that linear_solve rejects would end the
    # fit, or a whole scan, in DegenerateBasisError.
    windows = [Window(t1, min(t1 + length, 399)) for t1 in t1s]
    split = min(split, len(rows) - 1)
    points = np.concatenate([_batch(windows[0], rows[:split]), _batch(windows[1], rows[split:])])
    parts = [(0, 0, split), (1, split, len(rows))]
    arrays = [_window_arrays(NOISY, w) for w in windows]
    values = _objective(arrays, SearchConfig())(points, parts)
    ok = np.isfinite(_Layout(arrays, parts).profile(points)[1])
    for p, lo, hi in parts:
        for k in range(lo, hi):
            if not ok[k]:
                assert values[k] == np.inf
                with pytest.raises((DomainError, DegenerateBasisError)):
                    linear_solve(NOISY, windows[p], *points[k])
                continue
            linear_solve(NOISY, windows[p], *points[k])
            if np.isfinite(values[k]):
                assert cost(NOISY, windows[p], *points[k]) == pytest.approx(values[k], rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=650),
    tc_offset=st.floats(min_value=0.01, max_value=150.0),
    omega=st.floats(min_value=1.0, max_value=30.0),
    amplitude=st.floats(min_value=0.0, max_value=10.0),
    sigma=st.floats(min_value=1e-6, max_value=10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_lomb_power_matches_scipy_on_qualify_inputs(n, tc_offset, omega, amplitude, sigma, seed):
    # qualify's inputs: x = ln(tc - t) over a window, a centred residual, and
    # angular frequencies on the Rayleigh grid over [2, 25]
    from scipy.signal import lombscargle

    x = np.log(n - 1 + tc_offset - np.arange(n, dtype=float))
    r = amplitude * np.cos(omega * x) + sigma * np.random.default_rng(seed).standard_normal(n)
    r = r - r.mean()
    delta = 2.0 * math.pi / (x.max() - x.min())
    freqs = 2.0 + delta * np.arange(int(math.floor(23.0 / delta)) + 1)
    want = lombscargle(x, r, freqs)
    assert np.max(np.abs(_lomb_power(x, r, freqs) - want)) <= 1e-12 * np.max(want)


@settings(max_examples=3, deadline=None)
@given(first=st.integers(min_value=59, max_value=396), base_seed=st.integers(0, 2**32 - 1))
def test_scan_does_not_depend_on_worker_count(first, base_seed):
    args = (NOISY, first, first + 2, 1, TINY_SCHEME, TINY_SEARCH)
    assert scan(*args, base_seed=base_seed, workers=1) == scan(*args, base_seed=base_seed, workers=2)


@settings(max_examples=5, deadline=None)
@given(t2=st.integers(min_value=59, max_value=398), base_seed=st.integers(0, 2**32 - 1))
def test_indicator_is_unchanged_by_truncation_after_t2(t2, base_seed):
    def at(series):
        return confidence_at(series, t2, TINY_SCHEME, TINY_SEARCH, base_seed=base_seed)

    assert at(NOISY.truncate(t2)) == at(NOISY)
