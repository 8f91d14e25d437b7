import dataclasses
import math

import numpy as np
import pytest

from logperiodic import (
    DomainError,
    FilterConfig,
    BubbleSign,
    LpplsParams,
    PriceSeries,
    SearchConfig,
    SynthSpec,
    ValidationError,
    Window,
    ar1_test,
    detrended_residual,
    fit,
    generate,
    lomb_test,
    max_relative_error,
    oscillation_count,
    ou_test,
    qualify,
)
from logperiodic.calibrate import FitResult
from logperiodic.qualify import _lomb_power
from conftest import bubble_params, rng_for
from oracles import lomb_power


def make_params(**kw):
    base = dict(tc=220.0, m=0.5, omega=10.0, A=8.0, B=-0.5, C1=0.01, C2=0.01)
    base.update(kw)
    return LpplsParams(**base)


# --- oscillation count ---------------------------------------------------


def test_oscillation_e_ratio_identity():
    # tc - t1 = e * (tc - t2) with omega = 2, divisor 2 -> exactly 1
    w = Window(0, 100)
    dt2 = 100.0 / (math.e - 1.0)
    p = make_params(tc=100.0 + dt2, omega=2.0)
    assert oscillation_count(p, w, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_oscillation_arithmetic():
    w = Window(0, 90)
    p = make_params(tc=100.0, omega=10.0)  # tc-t1=100, tc-t2=10
    count = oscillation_count(p, w, 2.0)
    assert count == pytest.approx(5.0 * math.log(10.0), rel=1e-12)
    assert count >= 2.5


def test_oscillation_degenerate_far_tc():
    # tc far beyond the window: ratio -> 1, count -> 0, fails the floor
    w = Window(0, 100)
    p = make_params(tc=1e9)
    assert oscillation_count(p, w, 2.0) < 1e-5


def test_oscillation_divisors_and_domain():
    w = Window(0, 90)
    p = make_params(tc=100.0, omega=10.0)
    base = oscillation_count(p, w, 2.0)
    assert oscillation_count(p, w, math.pi) == pytest.approx(base * 2.0 / math.pi)
    assert oscillation_count(p, w, 2.0 * math.pi) == pytest.approx(base / math.pi)
    with pytest.raises(DomainError):
        oscillation_count(make_params(tc=80.0), w, 2.0)


def test_oscillation_shift_invariance():
    p = make_params(tc=230.0)
    shifted = make_params(tc=280.0)
    assert oscillation_count(p, Window(10, 200), 2.0) == pytest.approx(
        oscillation_count(shifted, Window(60, 250), 2.0), rel=1e-12
    )


# --- relative price error ------------------------------------------------


def test_rel_error_zero_on_exact_data(exact_bubble):
    truth, s = exact_bubble
    assert max_relative_error(s, Window(0, 199), truth) <= 1e-10


def test_rel_error_uniform_shift(exact_bubble):
    truth, s = exact_bubble
    shifted = dataclasses.replace(truth, A=truth.A + math.log(1.3))
    err = max_relative_error(s, Window(0, 199), shifted)
    assert err == pytest.approx(0.3, rel=1e-9)
    assert err > 0.20


def test_rel_error_single_outlier(exact_bubble):
    truth, s = exact_bubble
    prices = s.prices.copy()
    prices[100] = prices[100] / 1.25  # fitted price 25% above this point
    outlier = PriceSeries(prices, None, 1)
    assert max_relative_error(outlier, Window(0, 199), truth) == pytest.approx(0.25, rel=1e-9)


def test_rel_error_scale_invariance(exact_bubble):
    truth, s = exact_bubble
    k = 2.3
    scaled_series = PriceSeries(s.prices * k, None, 1)
    scaled_params = dataclasses.replace(truth, A=truth.A + math.log(k))
    a = max_relative_error(s, Window(0, 199), truth)
    b = max_relative_error(scaled_series, Window(0, 199), scaled_params)
    assert b == pytest.approx(a, abs=1e-12)


# --- detrended residual --------------------------------------------------


def test_detrended_residual_recovers_sinusoid(exact_bubble):
    truth, s = exact_bubble
    x, r = detrended_residual(s, Window(0, 199), truth)
    expected = truth.C1 * np.cos(truth.omega * x) + truth.C2 * np.sin(truth.omega * x)
    assert np.max(np.abs(r - expected)) <= 1e-10
    assert np.all(np.diff(x) < 0)
    assert x.shape == r.shape == (200,)


def test_detrended_residual_zero_without_oscillation():
    truth = make_params(C1=0.0, C2=0.0)
    s = generate(SynthSpec(params=truth, n=100, noise_sigma=0.0))
    _, r = detrended_residual(s, Window(0, 99), truth)
    assert np.max(np.abs(r)) <= 1e-10


def test_detrended_residual_finite_on_noise():
    rng = rng_for(3)
    s = PriceSeries(np.exp(rng.normal(5.0, 0.1, 50)), None, 1)
    x, r = detrended_residual(s, Window(0, 49), make_params(tc=60.0))
    assert np.all(np.isfinite(r)) and len(r) == 50


# --- Lomb test -----------------------------------------------------------


def test_lomb_detects_pure_sinusoid():
    rng = rng_for(7)
    x = np.sort(rng.uniform(0.0, 3.0, 100))
    r = np.cos(10.0 * x)
    res = lomb_test((x, r), alpha_sig=0.05)
    assert res.passed
    assert res.false_alarm_probability < 1e-6
    assert abs(res.peak_frequency - 10.0) < 2.0 * math.pi / 3.0  # one grid step


def test_lomb_rejects_constant_residual():
    x = np.linspace(0.0, 3.0, 50)
    res = lomb_test((x, np.zeros(50)), 0.05)
    assert not res.passed
    assert res.false_alarm_probability == 1.0
    # every residual at one abscissa (span 0): no frequency resolution to scan
    res = lomb_test((np.full(50, 1.5), np.cos(np.arange(50.0))), 0.05)
    assert not res.passed
    assert res.false_alarm_probability == 1.0
    assert math.isnan(res.peak_frequency)


def test_lomb_white_noise_rate_close_to_alpha():
    passes = 0
    trials = 300
    for seed in range(trials):
        rng = rng_for(seed)
        x = np.sort(rng.uniform(0.0, 3.0, 100))
        r = rng.standard_normal(100)
        passes += lomb_test((x, r), 0.05).passed
    assert abs(passes / trials - 0.05) <= 0.03


def test_lomb_power_matches_direct_formula():
    rng = rng_for(17)
    x = np.sort(rng.uniform(0.0, 4.0, 60))
    r = np.cos(7.0 * x) + 0.3 * rng.standard_normal(60)
    span = x.max() - x.min()
    delta = 2.0 * math.pi / span
    n_freq = int(math.floor((25.0 - 2.0) / delta)) + 1
    freqs = 2.0 + delta * np.arange(n_freq)
    got = _lomb_power(x, r - r.mean(), freqs)
    want = lomb_power(x, r, freqs)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)) <= 1e-8


def test_lomb_validation():
    x = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValidationError):
        lomb_test((x, np.zeros(5)), 0.05)
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        lomb_test((x, np.zeros(9)), 0.05)
    # a nan abscissa died on a bare ValueError, an infinite one on a
    # ZeroDivisionError and an infinite band on an OverflowError
    r = np.sin(7.0 * x)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^residual abscissae must be finite$"):
            lomb_test((np.append(x[:-1], bad), r), 0.05)
    with pytest.raises(ValidationError, match=r"^bad angular frequency range \(2.0, inf\)$"):
        lomb_test((x, r), 0.05, (2.0, math.inf))


# --- O-U / AR(1) test ----------------------------------------------------


def _ar1_series(rng, phi, n):
    u = rng.standard_normal(n)
    eps = np.empty(n)
    eps[0] = u[0]
    for i in range(1, n):
        eps[i] = phi * eps[i - 1] + u[i]
    return eps


def test_ar1_stationary_process_passes():
    hits = 0
    phis = []
    for seed in range(50):
        res = ar1_test(_ar1_series(rng_for(seed), 0.5, 200), 0.05)
        hits += res.passed
        phis.append(res.ar1_coefficient)
    assert hits >= 47
    assert 0.35 <= float(np.median(phis)) <= 0.65


def test_ar1_random_walk_rarely_passes():
    hits = 0
    for seed in range(50):
        rng = rng_for(10_000 + seed)
        eps = np.cumsum(rng.standard_normal(200))
        hits += ar1_test(eps, 0.05).passed
    assert hits / 50 <= 0.10


def test_ar1_zero_residuals_fail():
    res = ar1_test(np.zeros(50), 0.05)
    assert not res.passed


def test_ar1_exact_decay_passes_with_zero_standard_error():
    # eps[k+1] = 0.5 eps[k] exactly: phi = 0.5 with no innovation, so se is
    # 0, t is -inf and the MacKinnon p-value is clipped to 0
    res = ar1_test(0.5 ** np.arange(30.0), 0.05)
    assert res.ar1_coefficient == 0.5
    assert res.t_stat == -math.inf
    assert res.p_value == 0.0
    assert res.passed


def test_ar1_requires_minimum_length():
    with pytest.raises(ValidationError):
        ar1_test(np.zeros(11), 0.05)


def test_ou_test_recovers_noise_phi():
    truth = bubble_params(430.0, 0.5, 8.0)
    s = generate(SynthSpec(params=truth, n=300, noise_sigma=0.01, seed=5, noise_phi=0.5))
    res = ou_test(s, Window(0, 299), truth, 0.05)
    assert res.passed
    assert 0.35 <= res.ar1_coefficient <= 0.65


# --- full battery --------------------------------------------------------


def _fit_result(params):
    return FitResult(params=params, cost=0.0, evaluations=1)


def test_qualify_end_to_end_positive(strong_bubble):
    _, s = strong_bubble
    w = Window(320, 419)
    result = fit(s, w, SearchConfig(seed=0, max_evaluations=1200, restarts=3))
    report = qualify(result, s, w, FilterConfig())
    assert report.qualified
    assert report.sign is BubbleSign.POSITIVE
    # metrics agree with the standalone operations
    assert report.oscillation_count == pytest.approx(
        oscillation_count(result.params, w, 2.0)
    )
    assert report.max_relative_error == pytest.approx(
        max_relative_error(s, w, result.params)
    )
    pairs = detrended_residual(s, w, result.params)
    assert report.lomb_false_alarm == pytest.approx(
        lomb_test(pairs, 0.05).false_alarm_probability
    )
    assert report.ar1_coefficient == pytest.approx(
        ou_test(s, w, result.params, 0.05).ar1_coefficient
    )


def test_qualify_m_out_of_range_fails(strong_bubble):
    _, s = strong_bubble
    w = Window(320, 419)
    bad = _fit_result(make_params(m=0.995, tc=425.0))
    report = qualify(bad, s, w, FilterConfig())
    assert not report.m_in_range
    assert not report.qualified


def test_qualify_negative_bubble_sign():
    truth = bubble_params(430.0, 0.5, 8.0, B=0.8)
    mirror = dataclasses.replace(truth, C1=-truth.C1, C2=-truth.C2)
    s = generate(SynthSpec(params=mirror, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
    w = Window(320, 419)
    result = fit(s, w, SearchConfig(seed=0, max_evaluations=1200, restarts=3))
    report = qualify(result, s, w, FilterConfig())
    assert result.params.B > 0
    assert report.sign is BubbleSign.NEGATIVE


def test_qualify_zero_B_has_no_sign(strong_bubble):
    _, s = strong_bubble
    report = qualify(_fit_result(make_params(B=0.0, tc=425.0)), s, Window(320, 419), FilterConfig())
    assert report.sign is BubbleSign.INDETERMINATE


def test_qualified_equals_conjunction(strong_bubble):
    _, s = strong_bubble
    rng = rng_for(2)
    for _ in range(6):
        t1 = int(rng.integers(0, 300))
        w = Window(t1, t1 + 99)
        result = fit(s, w, SearchConfig(seed=int(rng.integers(1 << 30)), max_evaluations=400, restarts=1))
        r = qualify(result, s, w, FilterConfig())
        assert r.qualified == (
            r.m_in_range and r.omega_in_range and r.tc_in_range
            and r.oscillations_ok and r.rel_error_ok and r.lomb_ok and r.ou_ok
        )


def test_filter_tc_range_nested_in_search_box():
    search = SearchConfig()
    filt = FilterConfig()
    for t1, t2 in ((0, 100), (50, 700), (10, 40)):
        w = Window(t1, t2)
        assert filt.tc_extension * (t2 - t1) <= search.tc_extension * (t2 - t1)
        lo, hi = search.tc_bounds(w)
        assert lo <= t2 and t2 + filt.tc_extension * (t2 - t1) <= hi


def test_filter_config_validation():
    with pytest.raises(ValidationError):
        FilterConfig(oscillation_divisor=0.0)
    with pytest.raises(ValidationError):
        FilterConfig(lomb_alpha=0.0)
    with pytest.raises(ValidationError):
        FilterConfig(max_rel_error=0.0)
    with pytest.raises(ValidationError, match="must not be empty"):
        FilterConfig(m_min=0.9, m_max=0.1)
    with pytest.raises(ValidationError, match="must not be empty"):
        FilterConfig(omega_min=30.0, omega_max=20.0)
    FilterConfig(m_min=0.5, m_max=0.5)  # a one-point range is not empty
    # the Lomb test scans omega_min..omega_max, so that must be a finite positive band
    for bounds in ((2.0, math.inf), (10.0, 10.0), (-1.0, 25.0), (0.0, 25.0)):
        with pytest.raises(ValidationError, match="Lomb test"):
            FilterConfig(omega_min=bounds[0], omega_max=bounds[1])
    for f in dataclasses.fields(FilterConfig):
        with pytest.raises(ValidationError, match=f.name):
            FilterConfig(**{f.name: math.nan})
    FilterConfig(max_rel_error=math.inf)  # inf stays allowed: it switches a bound off
