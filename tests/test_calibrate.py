import math
import sys
from pathlib import Path

import numpy as np
import pytest

from logperiodic import (
    DegenerateBasisError,
    FitFailedError,
    FitResult,
    LpplsParams,
    PriceSeries,
    SearchConfig,
    SynthSpec,
    ValidationError,
    Window,
    cost,
    damping,
    fit,
    generate,
    ingest,
    linear_solve,
    window_seed,
)
from logperiodic import calibrate
from logperiodic.calibrate import TC_GUARD, _fit_windows
from logperiodic.cmaes import minimize_problems
from conftest import bubble_params, rng_for
from oracles import dense_normal_solve, grid_oracle, residual_sum_of_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402


def _desk(kind, seed):
    """The benchmark's seeded bubble or null series, read through ingest."""
    make = inputs.bubble_log_prices if kind == "bubble" else inputs.null_log_prices
    return ingest(inputs.csv_text(make(seed)))


def _search(series, window, seed, handoff):
    """The search of fit(series, window) under `seed`, with the handoff rule or without it."""
    cfg = SearchConfig()
    tc_lo, tc_hi = cfg.tc_bounds(window)
    box = ([tc_lo + TC_GUARD, cfg.m_min, cfg.omega_min], [tc_hi, cfg.m_max, cfg.omega_max])
    arrays = [calibrate._window_arrays(series, window)]
    found = minimize_problems(calibrate._objective(arrays, cfg), [box[0]], [box[1]],
                              popsize=cfg.population, max_evals=cfg.max_evaluations,
                              restarts=cfg.restarts, rngs=[np.random.default_rng(seed)],
                              far_behind=calibrate._FAR_BEHIND, handoff=handoff)[0]
    return found, arrays, box


def _recording_polish(monkeypatch):
    """Each call of calibrate._polish from here on: its start points and what it returned."""
    calls, polish = [], calibrate._polish

    def recording(arrays, lowers, uppers, starts, floor):
        ends = polish(arrays, lowers, uppers, starts, floor)
        calls.append((np.array(starts), ends))
        return ends

    monkeypatch.setattr(calibrate, "_polish", recording)
    return calls


def test_window_validation():
    with pytest.raises(ValidationError, match="^t1 must be >= 0, got -1$"):
        Window(-1, 10)
    with pytest.raises(ValidationError):
        Window(10, 10)
    with pytest.raises(ValidationError):
        Window(0, 6)  # only 7 points
    w = Window(0, 7)
    assert w.length == 8


def test_search_config_validation():
    with pytest.raises(ValidationError, match="^population must be >= 4, got 3$"):
        SearchConfig(population=3)
    with pytest.raises(ValidationError):
        SearchConfig(m_min=0.5, m_max=0.5)
    with pytest.raises(ValidationError):
        SearchConfig(tc_extension=0.0)
    with pytest.raises(ValidationError, match="^restarts must be >= 1, got 0$"):
        SearchConfig(restarts=0)
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        SearchConfig(seed=-1)
    for name in ("m_min", "m_max", "omega_min", "omega_max", "tc_extension", "damping_floor"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match=name):
                SearchConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("population", 7.5), ("restarts", 2.5), ("max_evaluations", 300.5), ("seed", 1.5),
    ("population", "7"), ("restarts", None),
])
def test_search_config_integer_settings_must_be_integers(name, value):
    # population 7.5 and restarts 2.5 were accepted and the fit then died in numpy;
    # max_evaluations 300.5 was used as is
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
        SearchConfig(**{name: value})
    assert type(getattr(SearchConfig(**{name: np.int64(9)}), name)) is int


def test_with_seed_must_be_an_integer():
    # with_seed(1.5) was truncated to seed 1
    with pytest.raises(ValidationError, match="seed must be an integer, got 1.5"):
        SearchConfig().with_seed(1.5)
    assert SearchConfig().with_seed(np.uint64(7)).seed == 7


@pytest.mark.parametrize("t1, t2", [(0, 30.5), (0.5, 40), ("0", 30)])
def test_window_bounds_must_be_integers(t1, t2):
    # Window(0, 30.5) was accepted, and fitting it died on a bare TypeError
    bad, value = ("t1", t1) if not isinstance(t1, int) else ("t2", t2)
    with pytest.raises(ValidationError, match=f"{bad} must be an integer, got {value!r}"):
        Window(t1, t2)
    assert type(Window(np.int64(0), np.int64(30)).t2) is int


def test_linear_solve_exact_interpolation():
    truth = LpplsParams(tc=220.0, m=0.4, omega=9.0, A=8.0, B=-0.02, C1=0.003, C2=-0.001)
    s = generate(SynthSpec(params=truth, n=120, noise_sigma=0.0))
    a, b, c1, c2 = linear_solve(s, Window(0, 119), truth.tc, truth.m, truth.omega)
    assert a == pytest.approx(8.0, abs=1e-8)
    assert b == pytest.approx(-0.02, abs=1e-8)
    assert c1 == pytest.approx(0.003, abs=1e-8)
    assert c2 == pytest.approx(-0.001, abs=1e-8)


def test_linear_solve_constant_series():
    s = PriceSeries(np.full(60, 42.0), None, 1)
    a, b, c1, c2 = linear_solve(s, Window(0, 59), 70.0, 0.5, 8.0)
    assert a == pytest.approx(math.log(42.0), abs=1e-9)
    for value in (b, c1, c2):
        assert value == pytest.approx(0.0, abs=1e-9)


def test_linear_solve_matches_dense_oracle():
    truth = bubble_params(420.0, 0.5, 10.0)
    s = generate(SynthSpec(params=truth, n=400, noise_sigma=0.02, seed=17))
    rng = rng_for(123)
    for _ in range(30):
        t1 = int(rng.integers(0, 300))
        w = Window(t1, min(t1 + int(rng.integers(20, 100)), 399))
        tc = w.t2 + rng.uniform(0.5, 40.0)
        m = rng.uniform(0.05, 0.95)
        omega = rng.uniform(1.5, 45.0)
        got = np.array(linear_solve(s, w, tc, m, omega))
        t = np.arange(w.t1, w.t2 + 1, dtype=float)
        want = dense_normal_solve(t, s.log_prices[w.t1 : w.t2 + 1], tc, m, omega)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-10)
        assert np.max(rel) <= 1e-8


def test_linear_solve_degenerate_basis():
    # m ~ 0 makes the power-law column collinear with the intercept
    s = PriceSeries(np.exp(rng_for(5).uniform(4.0, 5.0, 60)), None, 1)
    with pytest.raises(DegenerateBasisError):
        linear_solve(s, Window(0, 59), 70.0, 1e-12, 8.0)


def test_overflowing_basis_is_degenerate(exact_bubble):
    # 310 - t reaches 310, and 310^150 overflows: the normal matrix is not finite
    _, s = exact_bubble
    for solve in (cost, linear_solve):
        with pytest.raises(DegenerateBasisError):
            solve(s, Window(0, 199), 310.0, 150.0, 8.0)


def test_cost_zero_at_truth_positive_elsewhere(exact_bubble):
    truth, s = exact_bubble
    w = Window(0, 199)
    assert cost(s, w, truth.tc, truth.m, truth.omega) <= 1e-12
    assert cost(s, w, truth.tc + 5.0, truth.m, truth.omega) > 1e-8


def test_cost_is_minimum_over_linear_probes(exact_bubble):
    truth, _ = exact_bubble
    s = generate(SynthSpec(params=truth, n=64, noise_sigma=0.03, seed=21))
    w = Window(0, 59)
    tc, m, omega = w.t2 + 11.0, 0.45, 9.0
    best = cost(s, w, tc, m, omega)
    a0, b0, c10, c20 = linear_solve(s, w, tc, m, omega)
    t = np.arange(w.t1, w.t2 + 1, dtype=float)
    y = s.log_prices[w.t1 : w.t2 + 1]
    assert best == pytest.approx(
        residual_sum_of_squares(t, y, tc, m, omega, a0, b0, c10, c20), rel=1e-9
    )
    rng = rng_for(99)
    for _ in range(100):
        probe = (a0, b0, c10, c20) + rng.normal(0.0, 0.05, 4)
        assert residual_sum_of_squares(t, y, tc, m, omega, *probe) >= best


def test_fit_recovers_spec_example_parameters():
    # The stated example violates the hazard condition (damping 0.53 < 1),
    # so the floor is disabled via its config field for this case.
    truth = LpplsParams(tc=219.0, m=0.5, omega=10.0, A=8.0, B=-0.015, C1=0.001, C2=0.001)
    s = generate(SynthSpec(params=truth, n=200, noise_sigma=0.0))
    result = fit(s, Window(0, 199), SearchConfig(damping_floor=0.0, seed=2))
    assert abs(result.params.tc - truth.tc) <= 1.0
    assert abs(result.params.m - truth.m) <= 0.02
    assert abs(result.params.omega - truth.omega) <= 0.2
    assert result.cost <= 1e-10


def test_fit_is_deterministic(exact_bubble):
    _, s = exact_bubble
    w = Window(100, 199)
    cfg = SearchConfig(seed=77, max_evaluations=600, restarts=2)
    assert fit(s, w, cfg) == fit(s, w, cfg)


def test_fit_different_seeds_may_differ_but_stay_admissible(exact_bubble):
    _, s = exact_bubble
    w = Window(100, 199)
    r1 = fit(s, w, SearchConfig(seed=1, max_evaluations=400, restarts=2))
    r2 = fit(s, w, SearchConfig(seed=2, max_evaluations=400, restarts=2))
    for r in (r1, r2):
        assert r.cost >= 0.0


def test_fit_respects_box_on_arbitrary_data():
    rng = rng_for(31)
    cfg = SearchConfig(seed=4, max_evaluations=400, restarts=2)
    for _ in range(3):
        prices = np.exp(np.cumsum(rng.normal(0.0, 0.02, 80)) + 5.0)
        s = PriceSeries(prices, None, 1)
        w = Window(0, 79)
        try:
            result = fit(s, w, cfg)
        except FitFailedError:
            continue
        tc_lo, tc_hi = cfg.tc_bounds(w)
        assert tc_lo <= result.params.tc <= tc_hi
        assert cfg.m_min <= result.params.m <= cfg.m_max
        assert cfg.omega_min <= result.params.omega <= cfg.omega_max


def test_fit_failure_when_basis_always_degenerate(exact_bubble):
    _, s = exact_bubble
    cfg = SearchConfig(m_min=0.0, m_max=1e-9, seed=1, max_evaluations=100, restarts=1)
    with pytest.raises(FitFailedError):
        fit(s, Window(0, 199), cfg)


def test_failed_fit_carries_its_evaluation_count(exact_bubble):
    # no point reaches a damping ratio of 1e9, so the search rejects every one
    _, s = exact_bubble
    cfg = SearchConfig(damping_floor=1e9, seed=1, max_evaluations=300, restarts=2)
    with pytest.raises(FitFailedError) as caught:
        fit(s, Window(0, 199), cfg)
    assert caught.value.evaluations > 0
    assert str(caught.value).endswith(f"({caught.value.evaluations} evaluations)")


def test_chunked_fits_equal_single_fits(strong_bubble, monkeypatch):
    # With m >= 4 every candidate of the 200-point window is rejected, whatever
    # its tc, m, omega and the data: the first pivot of its normal matrix is
    # the window length 200, and the second is sum((f - mean f)^2) >=
    # (f(t1) - f(t2))^2 / 2 >= 199^8 / 2 for f = (tc - t)^m, so the pivot ratio
    # exceeds 1e12. The short windows' power-law columns stay small enough to fit.
    _, s = strong_bubble
    cfg = SearchConfig(max_evaluations=600, restarts=3, m_min=4.0, m_max=5.0)
    windows = [Window(419 - length + 1, 419) for length in (200, 40, 20, 10)]
    seeds = [3, 1 << 40, 12345, 7]
    alone = []
    for window, seed in zip(windows, seeds):
        try:
            alone.append(fit(s, window, cfg.with_seed(seed)))
        except FitFailedError as exc:
            alone.append(exc)
    chunk = _fit_windows(s, windows, cfg, seeds)
    assert [type(r) for r in alone] == [FitFailedError, FitResult, FitResult, FitResult]
    assert [type(r) for r in chunk] == [type(r) for r in alone]
    assert chunk[1:] == alone[1:]  # params, cost and evaluations, bit for bit
    assert str(chunk[0]) == str(alone[0])
    # a chunk whose first window's polish runs tc onto the end of its
    # interval: that window alone is searched again, its new best polished
    # in turn, and every result is still fit()'s
    series = _desk("bubble", 5)
    windows = [Window(659 - length + 1, 659) for length in (30, 92, 154)]
    seeds = [window_seed(5, 659, w.length) for w in windows]
    polishes = _recording_polish(monkeypatch)
    chunk = _fit_windows(series, windows, SearchConfig(), seeds)
    assert [len(starts) for starts, _ in polishes] == [3, 1]
    assert chunk == [fit(series, w, SearchConfig(seed=seed)) for w, seed in zip(windows, seeds)]


def test_polish_keeps_a_null_fit_on_the_m_face_and_lowers_its_cost():
    # the null series' leader is pinned at m = 1 when the handoff ends its search;
    # the polish moves tc and omega, keeps m on its face and lowers the cost by 6%
    series, window = _desk("null", 7), Window(663 - 123 + 1, 663)
    seed = window_seed(7, 663, 123)
    handed, arrays, (lower, upper) = _search(series, window, seed, calibrate._HANDOFF)
    assert handed.x[1] == 1.0
    (x,), (cost,), (spent,), (converged,) = calibrate._polish(
        arrays, [lower], [upper], [handed.x], 1.0)
    assert x[1] == 1.0 and converged
    assert damping(LpplsParams(*x, *linear_solve(series, window, *x))) >= 1.0
    assert cost < 0.95 * handed.cost
    # fit() takes the polished point, and counts the polish's evaluations
    result = fit(series, window, SearchConfig(seed=seed))
    assert [result.params.tc, result.params.m, result.params.omega] == x.tolist()
    assert result.cost < 0.95 * handed.cost
    assert result.evaluations == handed.evaluations + spent


def test_floor_bound_leader_finishes_in_one_search(monkeypatch):
    # this bubble window's leader sits on the damping floor and on omega's lower
    # face. The polish slides along the floor to the constrained minimum and
    # converges there, so the window is fitted by one search and one polish,
    # to a cost below the handed-off one, with the ratio still on the floor
    series, window = _desk("bubble", 6), Window(667 - 30 + 1, 667)
    seed = window_seed(6, 667, 30)
    polishes = _recording_polish(monkeypatch)
    result = fit(series, window, SearchConfig(seed=seed))
    handed, _, _ = _search(series, window, seed, calibrate._HANDOFF)
    ((first, ends),) = polishes
    assert np.array_equal(first, [handed.x]) and ends[3][0]
    assert result.evaluations == handed.evaluations + ends[2][0]
    assert result.cost < handed.cost
    assert 1.0 <= damping(result.params) < 1.0 + 1e-6


def test_window_that_falls_back_for_another_reason_is_searched_again(monkeypatch):
    # this bubble window's polish runs tc onto the upper end of its interval,
    # which its handed-off leader was not on, so the window is searched again
    # without the handoff: that search is the one made without the rule, bit
    # for bit, it ends elsewhere, and its best is polished in turn; the
    # evaluations count both searches and both polishes
    series, window = _desk("bubble", 5), Window(659 - 30 + 1, 659)
    seed = window_seed(5, 659, 30)
    polishes = _recording_polish(monkeypatch)
    result = fit(series, window, SearchConfig(seed=seed))
    handed, _, _ = _search(series, window, seed, calibrate._HANDOFF)
    plain, _, _ = _search(series, window, seed, None)
    (first, ends), (second, again) = polishes
    assert np.array_equal(first, [handed.x])
    assert ends[0][0][0] == SearchConfig().tc_bounds(window)[1]
    assert np.array_equal(second, [plain.x]) and not np.array_equal(plain.x, handed.x)
    assert result.evaluations == handed.evaluations + ends[2][0] + plain.evaluations + again[2][0]
    assert result.cost <= plain.cost
    # a null window whose polish finds nothing lower: its second search ends on
    # the handed-off point, so the first polish is reused, not made again
    series, window = _desk("null", 1), Window(659 - 30 + 1, 659)
    seed = window_seed(1, 659, 30)
    polishes = _recording_polish(monkeypatch)
    result = fit(series, window, SearchConfig(seed=seed))
    handed, _, _ = _search(series, window, seed, calibrate._HANDOFF)
    plain, _, _ = _search(series, window, seed, None)
    ((first, ends),) = polishes
    assert np.array_equal(first, [handed.x]) and np.array_equal(plain.x, handed.x)
    assert result.cost == plain.cost == ends[1][0]
    assert result.evaluations == handed.evaluations + ends[2][0] + plain.evaluations


# The desk windows (tools/tree_ab.py) that the fit without a floor in its
# polish searched twice: 8 bubble and 18 null windows, as (series, seed, t2, n).
_FELL_BACK = [("bubble", s, 667, 30) for s in (0, 1, 2, 3, 5, 6, 7)] + [("bubble", 5, 659, 30)] + [
    ("null", s, 659, n)
    for s, lengths in ((0, (61,)), (1, (247, 61, 30)), (2, (650, 92)), (3, (30,)),
                       (4, (650, 371, 340, 247, 61)), (5, (526, 309, 216, 123, 61, 30)))
    for n in lengths]


@pytest.mark.parametrize("kind, seed, t2, n", _FELL_BACK)
def test_polish_keeps_no_point_below_the_floor(monkeypatch, kind, seed, t2, n):
    # every trial the polish profiles is recorded with its cost and ratio; the
    # points it accepts are those whose cost is below the last accepted one's
    # and whose ratio is at or above the floor, and it must end on the last of
    # them. A polish that accepted a point below the floor, or stepped on from
    # one, would not
    series, window = _desk(kind, seed), Window(t2 - n + 1, t2)
    handed, arrays, (lower, upper) = _search(series, window, window_seed(seed, t2, n),
                                             calibrate._HANDOFF)
    trials, profile = [], calibrate._Layout.profile

    def recording(layout, points):
        beta, sse = profile(layout, points)
        trials.append((points[0].copy(), sse[0], damping(*points[0, 1:], *beta[0, 1:])))
        return beta, sse

    monkeypatch.setattr(calibrate._Layout, "profile", recording)
    (x,), (cost,), (spent,), _ = calibrate._polish(arrays, [lower], [upper], [handed.x], 1.0)
    assert len(trials) == spent // 4
    accepted = [(math.inf, None)]
    for point, sse, ratio in trials:
        if sse < accepted[-1][0] and ratio >= 1.0:
            accepted.append((sse, point))
    assert len(accepted) > 1 and accepted[-1][0] == cost and np.array_equal(accepted[-1][1], x)
    assert damping(LpplsParams(*x, *linear_solve(series, window, *x))) >= 1.0


def test_scale_covariance(exact_bubble):
    truth, s = exact_bubble
    w = Window(60, 199)
    k = 3.7
    scaled = PriceSeries(s.prices * k, None, 1)
    cfg = SearchConfig(seed=6, max_evaluations=800, restarts=2)
    r1 = fit(s, w, cfg)
    r2 = fit(scaled, w, cfg)
    assert cost(s, w, 210.0, 0.5, 10.0) == pytest.approx(
        cost(scaled, w, 210.0, 0.5, 10.0), rel=1e-9, abs=1e-12
    )
    assert r2.params.tc == pytest.approx(r1.params.tc, rel=1e-6)
    assert r2.params.m == pytest.approx(r1.params.m, rel=1e-6, abs=1e-9)
    assert r2.params.omega == pytest.approx(r1.params.omega, rel=1e-6)
    assert r2.params.A - r1.params.A == pytest.approx(math.log(k), abs=1e-8)
    assert r2.params.B == pytest.approx(r1.params.B, rel=1e-5, abs=1e-10)


def test_monotone_window_property():
    # truth close enough to the end that every window's tc box contains it
    truth = bubble_params(201.0, 0.5, 10.0)
    s = generate(SynthSpec(params=truth, n=200, noise_sigma=0.0, seed=3))
    for length in (8, 12, 30, 60, 120, 200):
        result = fit(s, Window(200 - length, 199), SearchConfig(seed=5))
        assert result.cost <= 1e-10, f"window length {length}: cost {result.cost}"


def test_grid_oracle_point_grid_at_truth():
    # place tc exactly on the guard offset so a 1-point tc axis hits it
    t2 = 149.0
    truth = bubble_params(t2 + TC_GUARD, 0.5, 10.0)
    s = generate(SynthSpec(params=truth, n=150, noise_sigma=0.0))
    cfg = SearchConfig(m_min=0.5, m_max=0.5 + 1e-12, omega_min=10.0, omega_max=10.0 + 1e-12)
    result = grid_oracle(s, Window(0, 149), (1, 1, 1), cfg)
    assert result.cost <= 1e-12
    assert result.evaluations == 1


def test_grid_oracle_dominated_by_fit(exact_bubble):
    truth, _ = exact_bubble
    s = generate(SynthSpec(params=truth, n=200, noise_sigma=0.01, seed=900))
    w = Window(0, 199)
    fitted = fit(s, w, SearchConfig(seed=300))
    oracle = grid_oracle(s, w, (12, 12, 12))
    assert fitted.cost <= oracle.cost * 1.001


def test_grid_oracle_smoke_and_empty(exact_bubble):
    truth, _ = exact_bubble
    s = generate(SynthSpec(params=truth, n=64, noise_sigma=0.05, seed=13))
    result = grid_oracle(s, Window(0, 59), (10, 10, 10))
    assert math.isfinite(result.cost)
    assert result.evaluations == 1000
    with pytest.raises(ValidationError):
        grid_oracle(s, Window(0, 59), (0, 10, 10))
