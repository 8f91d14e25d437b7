"""The paper's second level end to end: a daily series resampled to weekly, scanned and classified."""

import json
from fractions import Fraction

import numpy as np
import pytest

from logperiodic import PriceSeries, SynthSpec, emit_csv, generate, resample, scan
from logperiodic.classify import classify, peak_ci
from logperiodic.cli import main, read_scan_csv
from logperiodic.indicator import IndicatorPoint
from logperiodic.synth import trading_dates
from conftest import FAST_SEARCH, SMALL_SCHEME, bubble_params

SEED = 7
FIRST, LAST = 119, 121  # weekly endpoints: the bubble's last day and two weeks of its crash
REVIEW = (110, 129)


@pytest.fixture(scope="module")
def daily():
    """A 600-day bubble followed by a 50-day decline: 130 weekly points, the first 120 bubble."""
    params = bubble_params(610.0, 0.5, 8.0, B=-0.8)
    bubble = generate(SynthSpec(params=params, n=600, noise_sigma=0.004, seed=5, noise_phi=0.4))
    rng = np.random.default_rng(55)
    post = bubble.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(50))
    prices = np.exp(np.concatenate([bubble.log_prices, post]))
    return PriceSeries(prices, trading_dates(bubble.dates[0], 650), 1)


def _scan(weekly, first=FIRST, last=LAST, workers=1):
    return scan(weekly, first, last, scheme=SMALL_SCHEME, search_cfg=FAST_SEARCH, base_seed=SEED,
                workers=workers)


@pytest.fixture(scope="module")
def weekly_points(daily):
    return _scan(resample(daily, 5))


def test_weekly_scan_does_not_depend_on_workers(daily, weekly_points):
    weekly = resample(daily, 5)
    assert len(weekly) == 130 and weekly.dates[FIRST] == daily.dates[599]
    assert [p.t2 for p in weekly_points] == [119, 120, 121]
    assert _scan(weekly, workers=2) == weekly_points


def test_weekly_point_is_causal_on_its_own_grid(daily, weekly_points):
    weekly = resample(daily, 5)
    for point in weekly_points:
        d = daily.dates.index(weekly.dates[point.t2])
        truncated = resample(daily.truncate(d), 5)
        assert truncated == weekly.truncate(point.t2)
        assert _scan(truncated, point.t2, point.t2) == [point]  # diagnostics included


def test_weekly_cli_scan_and_classify_use_the_weekly_rule(daily, weekly_points, tmp_path):
    csv, table, out = tmp_path / "daily.csv", tmp_path / "scan.csv", tmp_path / "classify.json"
    csv.write_text(emit_csv(daily), encoding="utf-8")
    assert main([
        "scan", "--input", str(csv), "--stride", "5", "--seed", str(SEED),
        "--max-window", str(SMALL_SCHEME.max_len), "--min-window", str(SMALL_SCHEME.min_len),
        "--window-step", str(SMALL_SCHEME.step), "--max-evaluations", str(FAST_SEARCH.max_evaluations),
        "--restarts", str(FAST_SEARCH.restarts), "--t2-first", str(FIRST), "--t2-last", str(LAST),
        "--workers", "1", "--output", str(table),
    ]) == 0
    counts = [IndicatorPoint(p.t2, p.windows_total, p.windows_qualified_pos, p.windows_qualified_neg)
              for p in weekly_points]
    assert read_scan_csv(table.read_text(encoding="utf-8")) == counts

    assert main([
        "classify", "--input", str(csv), "--stride", "5", "--scan-table", str(table),
        "--review-first", str(REVIEW[0]), "--review-last", str(REVIEW[1]), "--output", str(out),
    ]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["config"]["threshold"] == 0.02
    assert Fraction(record["threshold"]["numerator"], record["threshold"]["denominator"]) == Fraction(2, 100)
    peak, _ = peak_ci(weekly_points, REVIEW)
    assert Fraction(record["peak_ci"]["numerator"], record["peak_ci"]["denominator"]) == peak
    assert record["crash_type"] == classify(peak, Fraction(2, 100)).value
