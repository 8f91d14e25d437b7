"""Crash-type classification from peak confidence indicator values.

A crash is called endogenous when the peak indicator over the review
period reaches a resolution-dependent threshold (rule of thumb: 5% on
daily series, 2% on weekly), exogenous otherwise. Comparisons are done
on exact rationals so boundary cases are deterministic.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError, integer
from .indicator import IndicatorPoint
from .series import PriceSeries

__all__ = [
    "CrashType",
    "CrashStats",
    "CrashAssessment",
    "classify",
    "peak_ci",
    "crash_stats",
    "assess",
]

DAILY_THRESHOLD = Fraction(5, 100)
WEEKLY_THRESHOLD = Fraction(2, 100)


class CrashType(enum.Enum):
    ENDOGENOUS = "Endogenous"
    EXOGENOUS = "Exogenous"


def _as_fraction(value) -> Fraction:
    # Floats go through their shortest decimal repr so 0.05 means 1/20,
    # not the nearest binary double.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"expected a finite number, got {value}")
        return Fraction(repr(value))
    return Fraction(value)


def classify(peak_ci, threshold) -> CrashType:
    """Endogenous iff peak_ci >= threshold (inclusive boundary)."""
    peak = _as_fraction(peak_ci)
    thresh = _as_fraction(threshold)
    if not 0 <= peak <= 1:
        raise ValidationError(f"peak_ci must lie in [0, 1], got {peak_ci}")
    if not 0 < thresh < 1:
        raise ValidationError(f"threshold must lie in (0, 1), got {threshold}")
    return CrashType.ENDOGENOUS if peak >= thresh else CrashType.EXOGENOUS


def peak_ci(
    points: list[IndicatorPoint],
    t2_range: tuple[int, int],
    sign: str = "positive",
) -> tuple[Fraction, int]:
    """Largest indicator of the given sign with t2 in [lo, hi]; earliest on ties."""
    if sign not in ("positive", "negative"):
        raise ValidationError(f"sign must be 'positive' or 'negative', got {sign!r}")
    lo, hi = (integer(f"t2_range[{i}]", t2_range[i]) for i in (0, 1))
    candidates = sorted((p for p in points if lo <= p.t2 <= hi), key=lambda p: p.t2)
    if not candidates:
        raise ValidationError(f"no indicator points with t2 in [{lo}, {hi}]")
    best = max(candidates, key=lambda p: _ci_of(p, sign))  # max keeps the first on ties
    return _ci_of(best, sign), best.t2


def _ci_of(point: IndicatorPoint, sign: str) -> Fraction:
    return point.positive_ci_fraction if sign == "positive" else point.negative_ci_fraction


@dataclass(frozen=True)
class CrashStats:
    peak_price: float
    peak_index: int
    peak_date: _dt.date | None
    valley_price: float
    valley_index: int
    valley_date: _dt.date | None
    crash_size: float


def crash_stats(series: PriceSeries, review: tuple[int, int]) -> CrashStats:
    """Highest price in the review interval, lowest price after it, drop size.

    crash_size = (peak - valley) / peak. Raises if no observation after the
    peak falls below it (no crash to measure).
    """
    lo, hi = (integer(f"review[{i}]", review[i]) for i in (0, 1))
    if not 0 <= lo < hi < len(series):
        raise ValidationError(f"review interval [{lo}, {hi}] outside series")
    prices = series.prices[lo : hi + 1]
    peak_off = int(np.argmax(prices))
    peak_idx = lo + peak_off
    after = prices[peak_off + 1 :]
    if after.size == 0:
        raise ValidationError("price peak sits at the end of the review interval; no valley after it")
    valley_off = int(np.argmin(after))
    valley_idx = peak_idx + 1 + valley_off
    peak_price = float(prices[peak_off])
    valley_price = float(after[valley_off])
    if valley_price >= peak_price:
        raise ValidationError("no decline after the peak in the review interval")
    return CrashStats(
        peak_price=peak_price,
        peak_index=peak_idx,
        peak_date=series.date_of(peak_idx),
        valley_price=valley_price,
        valley_index=valley_idx,
        valley_date=series.date_of(valley_idx),
        crash_size=(peak_price - valley_price) / peak_price,
    )


@dataclass(frozen=True)
class CrashAssessment:
    peak_ci: Fraction
    peak_ci_t2: int
    peak_ci_date: _dt.date | None
    threshold: Fraction
    crash_type: CrashType
    peak_price: float
    peak_date: _dt.date | None
    valley_price: float
    valley_date: _dt.date | None
    crash_size: float


def assess(
    series: PriceSeries,
    points: list[IndicatorPoint],
    review: tuple[int, int],
    threshold,
    sign: str = "positive",
) -> CrashAssessment:
    """Full assessment of one review interval: peak CI, type, crash statistics."""
    value, t2 = peak_ci(points, review, sign)
    stats = crash_stats(series, review)
    return CrashAssessment(
        peak_ci=value,
        peak_ci_t2=t2,
        peak_ci_date=series.date_of(t2),
        threshold=_as_fraction(threshold),
        crash_type=classify(value, threshold),
        peak_price=stats.peak_price,
        peak_date=stats.peak_date,
        valley_price=stats.valley_price,
        valley_date=stats.valley_date,
        crash_size=stats.crash_size,
    )
