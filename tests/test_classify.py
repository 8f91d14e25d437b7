import datetime as dt
import re
from fractions import Fraction

import numpy as np
import pytest

from logperiodic import (
    CrashType,
    IndicatorPoint,
    PriceSeries,
    ValidationError,
    assess,
    classify,
    crash_stats,
    peak_ci,
)
from logperiodic.synth import trading_dates

# Published daily-resolution detection table: peak CI vs 5% threshold.
TABLE_DAILY = [
    ("SP500", 0.160, "Endogenous"),
    ("DJIA", 0.216, "Endogenous"),
    ("NASDAQ", 0.120, "Endogenous"),
    ("FTSE", 0.008, "Exogenous"),
    ("DAX", 0.080, "Endogenous"),
    ("NIKKEI", 0.008, "Exogenous"),
    ("CSI300", 0.088, "Endogenous"),
    ("HSI", 0.024, "Exogenous"),
    ("BSESN", 0.064, "Endogenous"),
    ("BOVESPA", 0.120, "Endogenous"),
]

# Weekly-resolution table: peak CI vs 2% threshold.
TABLE_WEEKLY = [
    ("SP500", 0.160, "Endogenous"),
    ("DJIA", 0.032, "Endogenous"),
    ("NASDAQ", 0.144, "Endogenous"),
    ("FTSE", 0.000, "Exogenous"),
    ("DAX", 0.032, "Endogenous"),
    ("NIKKEI", 0.000, "Exogenous"),
    ("CSI300", 0.024, "Endogenous"),
    ("HSI", 0.000, "Exogenous"),
    ("BSESN", 0.104, "Endogenous"),
    ("BOVESPA", 0.120, "Endogenous"),
]

# Daily peak/valley prices and published crash sizes.
CRASHES_DAILY = [
    ("SP500", 3386.1, 2237.4, 0.339),
    ("DJIA", 29551.4, 18591.9, 0.371),
    ("NASDAQ", 9817.2, 6860.7, 0.301),
    ("FTSE", 7457.0, 4993.9, 0.330),
    ("DAX", 13789.0, 8441.7, 0.388),
    ("NIKKEI", 23861.2, 16552.8, 0.306),
    ("CSI300", 4206.7, 3530.3, 0.161),
    ("HSI", 27655.8, 21696.1, 0.215),
    ("BSESN", 41323.0, 25981.2, 0.371),
    ("BOVESPA", 116518.0, 63570.0, 0.454),
]


def test_classify_examples():
    assert classify(0.16, 0.05) is CrashType.ENDOGENOUS
    assert classify(0.008, 0.05) is CrashType.EXOGENOUS
    assert classify(0.024, 0.02) is CrashType.ENDOGENOUS


def test_classify_boundary_is_endogenous():
    assert classify(0.05, 0.05) is CrashType.ENDOGENOUS
    assert classify(Fraction(1, 20), 0.05) is CrashType.ENDOGENOUS
    # one window short of the daily threshold on the standard 125-window scheme
    assert classify(Fraction(6, 125), 0.05) is CrashType.EXOGENOUS


def test_classify_validation():
    with pytest.raises(ValidationError):
        classify(1.2, 0.05)
    with pytest.raises(ValidationError):
        classify(0.1, 0.0)
    with pytest.raises(ValidationError):
        classify(0.1, 1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            classify(0.1, value)
        with pytest.raises(ValidationError):
            classify(value, 0.05)


@pytest.mark.parametrize("name,ci,expected", TABLE_DAILY)
def test_daily_table_replay(name, ci, expected):
    assert classify(ci, 0.05).value == expected


@pytest.mark.parametrize("name,ci,expected", TABLE_WEEKLY)
def test_weekly_table_replay(name, ci, expected):
    assert classify(ci, 0.02).value == expected


def test_classify_monotone():
    cis = [0.0, 0.01, 0.05, 0.2, 1.0]
    results = [classify(ci, 0.05) is CrashType.ENDOGENOUS for ci in cis]
    assert results == sorted(results)  # once endogenous, stays endogenous
    thresholds = [0.01, 0.05, 0.2, 0.9]
    results = [classify(0.1, th) is CrashType.ENDOGENOUS for th in thresholds]
    assert results == sorted(results, reverse=True)


def _point(t2, pos, neg=0, total=125):
    return IndicatorPoint(t2=t2, windows_total=total,
                          windows_qualified_pos=pos, windows_qualified_neg=neg)


def test_peak_ci_single_point():
    value, t2 = peak_ci([_point(10, 20)], (0, 20), "positive")
    assert value == Fraction(20, 125)
    assert t2 == 10


def test_peak_ci_tie_takes_earliest():
    pts = [_point(10, 20), _point(12, 20), _point(11, 5)]
    value, t2 = peak_ci(pts, (0, 20), "positive")
    assert (value, t2) == (Fraction(20, 125), 10)


def test_peak_ci_rising_falling():
    pts = [_point(1, 2), _point(2, 8), _point(3, 11), _point(4, 6)]
    value, t2 = peak_ci(pts, (1, 4), "positive")
    assert (value, t2) == (Fraction(11, 125), 3)


def test_peak_ci_respects_range_and_sign():
    pts = [_point(1, 2, neg=9), _point(2, 8, neg=1)]
    value, t2 = peak_ci(pts, (2, 2), "positive")
    assert (value, t2) == (Fraction(8, 125), 2)
    value, t2 = peak_ci(pts, (1, 2), "negative")
    assert (value, t2) == (Fraction(9, 125), 1)
    with pytest.raises(ValidationError):
        peak_ci(pts, (5, 9), "positive")
    with pytest.raises(ValidationError):
        peak_ci(pts, (1, 2), "sideways")


@pytest.mark.parametrize("call, name", [
    (lambda: peak_ci([_point(0, 20)], (0.5, 3.9)), "t2_range[0]"),
    (lambda: crash_stats(PriceSeries(np.linspace(200.0, 100.0, 150), None, 1), (50.7, 119.9)),
     "review[0]"),
], ids=["peak_ci", "crash_stats"])
def test_review_bounds_must_be_integers(call, name):
    # both were truncated: peak_ci returned t2 = 0, outside the range asked for,
    # and crash_stats measured the interval [50, 119]
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be an integer")):
        call()


@pytest.mark.parametrize("name,peak,valley,size", CRASHES_DAILY)
def test_crash_size_replay(name, peak, valley, size):
    s = PriceSeries([peak * 0.9, peak, (peak + valley) / 2, valley, valley * 1.1], None, 1)
    stats = crash_stats(s, (0, 4))
    assert stats.peak_price == peak
    assert stats.valley_price == valley
    assert abs(stats.crash_size - size) <= 0.001  # +/- 0.1 percentage point


def test_crash_stats_dates_and_indices():
    dates = trading_dates(dt.date(2020, 2, 17), 5)
    s = PriceSeries([3300.0, 3386.1, 2900.0, 2237.4, 2400.0], dates, 1)
    stats = crash_stats(s, (0, 4))
    assert stats.peak_index == 1
    assert stats.valley_index == 3
    assert stats.peak_date == dates[1]
    assert stats.valley_date == dates[3]


def test_crash_stats_valley_after_peak_only():
    # global min before the peak must be ignored
    s = PriceSeries([50.0, 100.0, 80.0, 90.0], None, 1)
    stats = crash_stats(s, (0, 3))
    assert stats.peak_price == 100.0
    assert stats.valley_price == 80.0


def test_crash_stats_errors():
    with pytest.raises(ValidationError):
        crash_stats(PriceSeries([1.0, 2.0, 3.0], None, 1), (0, 2))  # rising
    with pytest.raises(ValidationError):
        crash_stats(PriceSeries([5.0, 5.0, 5.0], None, 1), (0, 2))  # constant
    with pytest.raises(ValidationError):
        crash_stats(PriceSeries([1.0, 2.0], None, 1), (0, 5))  # out of range


def test_crash_size_scale_invariant():
    prices = [3300.0, 3386.1, 2900.0, 2237.4, 2400.0]
    a = crash_stats(PriceSeries(prices, None, 1), (0, 4)).crash_size
    b = crash_stats(PriceSeries([p * 7.25 for p in prices], None, 1), (0, 4)).crash_size
    assert a == pytest.approx(b, rel=1e-12)


def test_assess_composes():
    dates = trading_dates(dt.date(2020, 2, 3), 6)
    s = PriceSeries([3000.0, 3200.0, 3386.1, 3000.0, 2237.4, 2500.0], dates, 1)
    pts = [_point(1, 4), _point(2, 20), _point(3, 9)]
    out = assess(s, pts, (0, 5), 0.05, sign="positive")
    assert out.crash_type is CrashType.ENDOGENOUS
    assert out.peak_ci == Fraction(20, 125)
    assert out.peak_ci_t2 == 2
    assert out.peak_ci_date == dates[2]
    assert out.peak_price == 3386.1
    assert out.valley_price == 2237.4
    assert out.crash_size == pytest.approx(0.339, abs=1e-3)
    assert out.threshold == Fraction(1, 20)
