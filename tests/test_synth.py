import datetime as dt
import math

import numpy as np
import pytest
from scipy import stats

from logperiodic import (
    SearchConfig,
    SynthSpec,
    ValidationError,
    Window,
    evaluate,
    fit,
    generate,
    ingest,
    emit_csv,
)
from logperiodic.synth import trading_dates
from conftest import bubble_params


def test_noiseless_matches_model_exactly():
    params = bubble_params(220.0, 0.5, 10.0)
    s = generate(SynthSpec(params=params, n=150, noise_sigma=0.0))
    t = np.arange(150, dtype=float)
    assert np.array_equal(s.log_prices, np.log(np.exp(evaluate(params, t))))
    assert np.max(np.abs(s.log_prices - evaluate(params, t))) <= 1e-12


def test_same_spec_is_deterministic():
    spec = SynthSpec(params=bubble_params(220.0, 0.5, 10.0), n=100, noise_sigma=0.02, seed=9)
    assert generate(spec) == generate(spec)


def test_noise_standard_deviation_within_chi_square_bounds():
    # For n=500 normal draws, P(0.008 <= s <= 0.012 | sigma=0.01) per chi-square:
    n = 500
    lo = stats.chi2.cdf((n - 1) * 0.8**2, n - 1)
    hi = stats.chi2.cdf((n - 1) * 1.2**2, n - 1)
    assert hi - lo >= 0.99  # the band is overwhelmingly likely...
    params = bubble_params(520.0, 0.5, 10.0)
    t = np.arange(n, dtype=float)
    clean = evaluate(params, t)
    for seed in range(40):  # ...so every seeded draw should land inside it
        s = generate(SynthSpec(params=params, n=n, noise_sigma=0.01, seed=seed))
        sd = float(np.std(s.log_prices - clean, ddof=1))
        assert 0.008 <= sd <= 0.012


def test_ar1_noise_mode_autocorrelation():
    params = bubble_params(1100.0, 0.5, 10.0)
    s = generate(SynthSpec(params=params, n=1000, noise_sigma=0.01, seed=4, noise_phi=0.6))
    t = np.arange(1000, dtype=float)
    eps = s.log_prices - evaluate(params, t)
    rho = float(eps[1:] @ eps[:-1] / (eps[:-1] @ eps[:-1]))
    assert 0.5 <= rho <= 0.7


def test_spec_validation():
    p = bubble_params(220.0, 0.5, 10.0)
    with pytest.raises(ValidationError, match="^n must be >= 2, got 1$"):
        SynthSpec(params=p, n=1)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            SynthSpec(params=p, n=100, noise_sigma=sigma)
    with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
        SynthSpec(params=p, n=100, noise_sigma=0.01, seed=-1)
    with pytest.raises(ValidationError):
        SynthSpec(params=p, n=100, noise_phi=1.0)
    with pytest.raises(ValidationError):
        SynthSpec(params=p, n=300)  # t_end = 299 >= tc = 220


@pytest.mark.parametrize("name, value", [("n", 10.5), ("seed", 1.5)])
def test_spec_counts_must_be_integers(name, value):
    # both were accepted, and generate then died on a bare numpy TypeError
    spec = {"params": bubble_params(220.0, 0.5, 10.0), "n": 10, "noise_sigma": 0.01, name: value}
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
        SynthSpec(**spec)


def test_generate_fit_round_trip():
    params = bubble_params(180.0, 0.6, 9.0)
    s = generate(SynthSpec(params=params, n=160, noise_sigma=0.0))
    result = fit(s, Window(0, 159), SearchConfig(seed=12))
    assert abs(result.params.tc - params.tc) <= 1.0
    assert abs(result.params.m - params.m) <= 0.02
    assert abs(result.params.omega - params.omega) <= 0.2
    assert result.cost <= 1e-10


def test_trading_dates_skip_weekends():
    dates = trading_dates(dt.date(2000, 1, 1), 10)  # a Saturday
    assert len(dates) == 10
    assert dates[0] == dt.date(2000, 1, 3)
    assert all(d.weekday() < 5 for d in dates)
    assert all(b > a for a, b in zip(dates, dates[1:]))
    # the calendar ends on Friday 9999-12-31: the last day may be taken, none after it
    assert trading_dates(dt.date(9999, 12, 30), 2) == (dt.date(9999, 12, 30), dt.date.max)
    with pytest.raises(ValidationError, match="3 trading days from 9999-12-30 run past 9999-12-31"):
        trading_dates(dt.date(9999, 12, 30), 3)


def test_trading_dates_are_the_weekdays_from_a_random_start():
    rng = np.random.default_rng(20)
    lo, hi = dt.date(1, 1, 1).toordinal(), dt.date(9999, 12, 1).toordinal()
    for ordinal, n in zip(rng.integers(lo, hi, 200), rng.integers(0, 40, 200)):
        start, n = dt.date.fromordinal(int(ordinal)), int(n)
        days = (start + dt.timedelta(days=k) for k in range(2 * n + 7))  # holds n weekdays
        weekdays = tuple(day for day in days if day.weekday() < 5)[:n]
        assert len(weekdays) == n
        assert trading_dates(start, n) == weekdays


def test_generated_csv_round_trips():
    spec = SynthSpec(params=bubble_params(220.0, 0.5, 10.0), n=80, noise_sigma=0.01, seed=2)
    s = generate(spec)
    assert s.dates is not None
    assert ingest(emit_csv(s)) == s


def test_white_noise_is_special_case_of_ar1():
    p = bubble_params(220.0, 0.5, 10.0)
    white = generate(SynthSpec(params=p, n=100, noise_sigma=0.02, seed=3, noise_phi=0.0))
    again = generate(SynthSpec(params=p, n=100, noise_sigma=0.02, seed=3))
    assert white == again
