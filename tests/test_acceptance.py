"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. Criterion 9 needs user-supplied market data (see the env
vars below) and is skipped when the files are absent.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from logperiodic import (
    FilterConfig,
    SearchConfig,
    SynthSpec,
    Window,
    WindowScheme,
    classify,
    confidence_at,
    crash_stats,
    fit,
    generate,
    linear_solve,
    ar1_test,
    lomb_test,
    ingest,
    scan,
    PriceSeries,
    CrashType,
)
from conftest import bubble_params, rng_for
from oracles import dense_normal_solve, grid_oracle
from test_classify import CRASHES_DAILY, TABLE_DAILY, TABLE_WEEKLY

SP500_ENV = "LOGPERIODIC_SP500_CSV"
FTSE_ENV = "LOGPERIODIC_FTSE_CSV"


def _report(number, name, detail):
    print(f"\nACCEPTANCE {number:2d} {name}: PASS ({detail})")


def test_criterion_01_window_scheme_arithmetic():
    scheme = WindowScheme(650, 30, 5)
    assert scheme.count == 125
    from logperiodic import windows_for

    assert len(windows_for(649, scheme)) == 125
    _report(1, "window-scheme arithmetic", "scheme (650,30,5) -> 125 windows")


def test_criterion_02_linear_solve_oracle_equivalence():
    truth = bubble_params(420.0, 0.5, 10.0)
    series = generate(SynthSpec(params=truth, n=400, noise_sigma=0.02, seed=17))
    rng = rng_for(123)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        t1 = int(rng.integers(0, 300))
        w = Window(t1, min(t1 + int(rng.integers(20, 100)), 399))
        tc = w.t2 + rng.uniform(0.5, 40.0)
        m = rng.uniform(0.05, 0.95)
        omega = rng.uniform(1.5, 45.0)
        got = np.array(linear_solve(series, w, tc, m, omega))
        t = np.arange(w.t1, w.t2 + 1, dtype=float)
        want = dense_normal_solve(t, series.log_prices[w.t1 : w.t2 + 1], tc, m, omega)
        rel = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-10)))
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, "linear-solve oracle equivalence", f"100 instances, worst rel {worst:.1e}, {elapsed:.2f}s")


def test_criterion_03_noiseless_recovery():
    grid = list(itertools.product([0.2, 0.5, 0.8], [5.0, 10.0, 20.0]))
    cases = (grid * 3)[:20]
    start = time.perf_counter()
    good = 0
    for i, (m, omega) in enumerate(cases):
        truth = bubble_params(219.0, m, omega)
        series = generate(SynthSpec(params=truth, n=200, noise_sigma=0.0, seed=100 + i))
        result = fit(series, Window(0, 199), SearchConfig(seed=1000 + i))
        good += (
            abs(result.params.tc - truth.tc) <= 1.0
            and abs(result.params.m - truth.m) <= 0.02
            and abs(result.params.omega - truth.omega) <= 0.2
            and result.cost <= 1e-8
        )
    elapsed = time.perf_counter() - start
    assert good >= 18
    assert elapsed < 120.0
    _report(3, "noiseless recovery", f"{good}/20 within tolerance, {elapsed:.1f}s")


def test_criterion_04_noisy_recovery():
    grid = list(itertools.product([0.4, 0.5, 0.8], [6.0, 10.0, 20.0]))
    start = time.perf_counter()
    good = 0
    for i in range(50):
        m, omega = grid[i % len(grid)]
        truth = bubble_params(219.0, m, omega)
        series = generate(SynthSpec(params=truth, n=200, noise_sigma=0.01, seed=500 + i))
        result = fit(series, Window(0, 199), SearchConfig(seed=7000 + i))
        good += abs(result.params.tc - truth.tc) <= 0.05 * (truth.tc - 199.0)
    elapsed = time.perf_counter() - start
    assert good >= 40  # >= 80% of 50
    assert elapsed < 300.0
    _report(4, "noisy recovery", f"tc within 5% of horizon in {good}/50 trials, {elapsed:.1f}s")


def test_criterion_05_grid_oracle_dominance():
    truth = bubble_params(219.0, 0.5, 10.0)
    start = time.perf_counter()
    for i in range(10):
        series = generate(SynthSpec(params=truth, n=200, noise_sigma=0.01, seed=900 + i))
        w = Window(0, 199)
        fitted = fit(series, w, SearchConfig(seed=300 + i))
        oracle = grid_oracle(series, w, (20, 20, 20))
        assert fitted.cost <= oracle.cost * 1.001
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(5, "grid-oracle dominance", f"CMA-ES <= 20^3 grid x 1.001 on 10/10, {elapsed:.1f}s")


def test_criterion_06_filter_monte_carlo():
    start = time.perf_counter()
    lomb_hits = 0
    for seed in range(1000):
        rng = rng_for(seed)
        x = np.sort(rng.uniform(0.0, 3.0, 100))
        r = rng.standard_normal(100)
        lomb_hits += lomb_test((x, r), 0.05).passed
    lomb_rate = lomb_hits / 1000
    assert abs(lomb_rate - 0.05) <= 0.02

    ar_hits = 0
    for seed in range(200):
        rng = rng_for(seed)
        u = rng.standard_normal(200)
        eps = np.empty(200)
        eps[0] = u[0]
        for i in range(1, 200):
            eps[i] = 0.5 * eps[i - 1] + u[i]
        ar_hits += ar1_test(eps, 0.05).passed
    walk_hits = 0
    for seed in range(200):
        rng = rng_for(10_000 + seed)
        walk_hits += ar1_test(np.cumsum(rng.standard_normal(200)), 0.05).passed
    elapsed = time.perf_counter() - start
    assert ar_hits / 200 >= 0.95
    assert walk_hits / 200 <= 0.10
    assert elapsed < 120.0
    _report(
        6, "filter Monte Carlo calibration",
        f"lomb rate {lomb_rate:.3f}, AR(1) power {ar_hits/200:.2f}, walk rate {walk_hits/200:.2f}, {elapsed:.1f}s",
    )


def test_criterion_07_classification_replay():
    for name, ci, expected in TABLE_DAILY:
        assert classify(ci, 0.05).value == expected, name
    for name, ci, expected in TABLE_WEEKLY:
        assert classify(ci, 0.02).value == expected, name
    _report(7, "classification replay", "daily 10/10 at 5%, weekly 10/10 at 2%")


def test_criterion_08_crash_size_replay():
    worst = 0.0
    for name, peak, valley, size in CRASHES_DAILY:
        series = PriceSeries([peak * 0.9, peak, valley, valley * 1.05], None, 1)
        stats = crash_stats(series, (0, 3))
        err = abs(stats.crash_size - size)
        worst = max(worst, err)
        assert err <= 0.001, name  # +/- 0.1 percentage point
    _report(8, "crash-size replay", f"10/10 rows, worst gap {worst*100:.3f}pp")


def _market_scan(
    path,
    scheme=WindowScheme(650, 30, 5),
    search_cfg=SearchConfig(seed=0),
    anchor_date="2020-02-19",
    endpoints=20,
):
    """The criterion-9 protocol: scan `endpoints` trading days around the anchor."""
    with open(path, encoding="utf-8") as handle:
        series = ingest(handle.read())
    anchor = None
    for i, d in enumerate(series.dates):
        if d.isoformat() >= anchor_date:
            anchor = i
            break
    assert anchor is not None, f"series must cover {anchor_date}"
    before = endpoints // 2
    assert anchor - before >= scheme.max_len - 1, "not enough history before the scan range"
    points = scan(
        series,
        anchor - before,
        anchor + endpoints - before - 1,
        1,
        scheme,
        search_cfg,
        FilterConfig(),
        base_seed=0,
        workers=os.cpu_count(),
    )
    best = max(points, key=lambda p: (p.positive_ci, -p.t2))
    return series, anchor, best


@pytest.mark.skipif(
    not (os.environ.get(SP500_ENV) and os.environ.get(FTSE_ENV)),
    reason=f"desk-scale market check needs daily close CSVs via {SP500_ENV} and {FTSE_ENV}",
)
def test_criterion_09_desk_scale_market_reproduction():
    start = time.perf_counter()
    sp_series, sp_anchor, sp_best = _market_scan(os.environ[SP500_ENV])
    assert sp_best.positive_ci >= 0.05
    assert abs(sp_best.t2 - sp_anchor) <= 5
    _, _, ftse_best = _market_scan(os.environ[FTSE_ENV])
    assert ftse_best.positive_ci < 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    _report(
        9, "desk-scale market reproduction",
        f"SP500 peak {sp_best.positive_ci:.3f} at {sp_series.date_of(sp_best.t2)}, "
        f"FTSE peak {ftse_best.positive_ci:.3f}, {elapsed/60:.1f} min",
    )


def test_desk_scale_protocol_on_synthetic_standins(tmp_path):
    """Supplementary: criterion 9's machinery, driven by synthetic stand-ins.

    Not the criterion itself (that needs real index data); this keeps the
    date-anchored scan-and-peak path exercised so a data drop-in just works.
    """
    import datetime as dt

    from logperiodic import emit_csv
    from logperiodic.synth import trading_dates

    # start date chosen so the bubble's last point lands on the anchor date
    anchor = dt.date(2020, 2, 19)
    day, back = anchor, []
    while len(back) < 420:
        if day.weekday() < 5:
            back.append(day)
        day -= dt.timedelta(days=1)
    start = back[-1]

    params = bubble_params(430.0, 0.5, 8.0, B=-0.8)
    bubble = generate(
        SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4, start_date=start)
    )
    rng = rng_for(99)
    post = bubble.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(60))
    series = PriceSeries(
        np.exp(np.concatenate([bubble.log_prices, post])), trading_dates(start, 480), 1
    )
    assert series.dates[419] == anchor
    bubble_path = tmp_path / "standin_bubble.csv"
    bubble_path.write_text(emit_csv(series), encoding="utf-8")

    scheme = WindowScheme(120, 40, 20)
    cfg = SearchConfig(seed=0, max_evaluations=1200, restarts=3)
    got, idx, best = _market_scan(bubble_path, scheme, cfg, endpoints=12)
    assert idx == 419
    assert best.positive_ci >= 0.05
    assert abs(best.t2 - idx) <= 5

    # exponential-plus-noise null: no bubble signature, peak stays under 5%
    t = np.arange(480, dtype=float)
    null_prices = np.exp(5.0 + 0.0015 * t + 0.004 * rng_for(3).standard_normal(480))
    null_series = PriceSeries(null_prices, trading_dates(start, 480), 1)
    null_path = tmp_path / "standin_null.csv"
    null_path.write_text(emit_csv(null_series), encoding="utf-8")
    _, _, null_best = _market_scan(null_path, scheme, cfg, endpoints=12)
    assert null_best.positive_ci < 0.05


def test_criterion_10_causality():
    params = bubble_params(430.0, 0.5, 8.0, B=-0.8)
    series = generate(SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
    scheme = WindowScheme(120, 40, 20)
    cfg = SearchConfig(max_evaluations=800, restarts=2)
    rng = rng_for(55)
    first = int(rng.integers(300, 370))
    endpoints = list(range(first, first + 5 * 7, 7))
    start = time.perf_counter()
    full = scan(series, endpoints[0], endpoints[-1], 7, scheme, cfg, base_seed=42)
    assert [p.t2 for p in full] == endpoints
    for point in full:
        truncated = confidence_at(
            series.truncate(point.t2), point.t2, scheme, cfg, base_seed=42
        )
        assert truncated == point
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(10, "causality", f"5 endpoints bit-identical under truncation, {elapsed:.1f}s")
