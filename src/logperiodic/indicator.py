"""Confidence indicator: fraction of shrinking windows whose fits qualify.

For an endpoint t2, a family of nested windows (all ending at t2, lengths
shrinking from max_len to min_len in fixed steps) is calibrated and
filtered; the positive (negative) indicator is the fraction of windows
with a qualifying B<0 (B>0) fit. The denominator is always the scheme's
window count: failed fits count as unqualified, they never shrink it.
Only data at indices <= t2 is touched, so the indicator is causal.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calibrate import SearchConfig, Window, _fit_windows
from .errors import FitFailedError, InsufficientHistoryError, ValidationError, integer
from .qualify import BubbleSign, FilterConfig, QualificationReport, qualify
from .series import PriceSeries

__all__ = [
    "WindowScheme",
    "WindowOutcome",
    "IndicatorPoint",
    "windows_for",
    "window_seed",
    "confidence_at",
    "scan",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WindowScheme:
    """Nested window lengths: max_len, max_len-step, ..., min_len."""

    max_len: int = 650
    min_len: int = 30
    step: int = 5

    def __post_init__(self):
        for name, least in (("max_len", None), ("min_len", 8), ("step", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        if self.max_len < self.min_len:
            raise ValidationError("max_len must be >= min_len")
        if (self.max_len - self.min_len) % self.step != 0:
            raise ValidationError(
                f"window range {self.max_len}..{self.min_len} not divisible by step {self.step}"
            )

    @property
    def count(self) -> int:
        return (self.max_len - self.min_len) // self.step + 1

    def lengths(self) -> range:
        return range(self.max_len, self.min_len - 1, -self.step)


@dataclass(frozen=True)
class WindowOutcome:
    """Per-window diagnostic; report is None only when the fit failed."""

    window: Window
    cost: float
    report: QualificationReport | None
    error: str | None


@dataclass(frozen=True)
class IndicatorPoint:
    """Confidence indicator at one endpoint, counts kept exact.

    diagnostics holds the outcome of each scheme window, longest first; it
    is empty for points read back from a scan table.
    """

    t2: int
    windows_total: int
    windows_qualified_pos: int
    windows_qualified_neg: int
    diagnostics: tuple[WindowOutcome, ...] = ()

    @property
    def positive_ci(self) -> float:
        return self.windows_qualified_pos / self.windows_total

    @property
    def negative_ci(self) -> float:
        return self.windows_qualified_neg / self.windows_total

    @property
    def positive_ci_fraction(self) -> Fraction:
        return Fraction(self.windows_qualified_pos, self.windows_total)

    @property
    def negative_ci_fraction(self) -> Fraction:
        return Fraction(self.windows_qualified_neg, self.windows_total)


def windows_for(t2: int, scheme: WindowScheme = WindowScheme()) -> list[Window]:
    """All scheme windows ending at t2, longest first."""
    t2 = integer("t2", t2)
    if t2 - (scheme.max_len - 1) < 0:
        raise InsufficientHistoryError(
            f"endpoint {t2} needs {scheme.max_len} points of history"
        )
    return [Window(t2 - length + 1, t2) for length in scheme.lengths()]


def window_seed(base_seed: int, t2: int, length: int) -> int:
    """Stable per-window seed; identical across runs, platforms and workers."""
    entropy = [integer(name, value, 0)
               for name, value in (("base_seed", base_seed), ("t2", t2), ("length", length))]
    ss = np.random.SeedSequence(entropy=entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Most windows per task: consecutive windows of one endpoint, fitted as one
# lockstep search so they share the per-generation CMA-ES work.
_CHUNK = 16


def _chunks(windows: list[Window]) -> list[list[Window]]:
    """Split one endpoint's windows into ceil(W/_CHUNK) consecutive chunks.

    Chunk sizes differ by at most one (21 windows give 10/11, 11 give one
    chunk of 11, 125 give 8 chunks of 15 or 16), so the pool's tasks are
    balanced, and the split depends on the scheme alone.
    """
    count = len(windows)
    parts = -(-count // _CHUNK)
    return [windows[j * count // parts : (j + 1) * count // parts] for j in range(parts)]


def _chunk_task(args) -> list[WindowOutcome]:
    series, windows, search_cfg, seeds, filter_cfg = args
    outcomes = []
    for window, result in zip(windows, _fit_windows(series, windows, search_cfg, seeds)):
        if isinstance(result, FitFailedError):
            outcomes.append(WindowOutcome(window, float("inf"), None, str(result)))
        else:
            outcomes.append(WindowOutcome(window, result.cost,
                                          qualify(result, series, window, filter_cfg), None))
    return outcomes


def _points(series, endpoints, scheme, search_cfg, filter_cfg, base_seed,
            workers) -> list[IndicatorPoint]:
    """Fit and qualify every scheme window of every endpoint as one task list."""
    base_seed, workers = integer("base_seed", base_seed, 0), integer("workers", workers, 1)
    tasks = []
    for t2 in endpoints:
        for chunk in _chunks(windows_for(t2, scheme)):
            seeds = [window_seed(base_seed, t2, w.length) for w in chunk]
            tasks.append((series, chunk, search_cfg, seeds, filter_cfg))
    if workers > 1 and len(tasks) > 1:
        # imported here: it loads multiprocessing, which a serial run and
        # every CLI call that runs no pool would pay for at import
        from concurrent.futures import ProcessPoolExecutor

        # the executor forks all max_workers processes at once: start no idle ones
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            chunks = list(pool.map(_chunk_task, tasks))  # pool.map keeps task order
    else:
        chunks = [_chunk_task(t) for t in tasks]
    outcomes = [o for chunk in chunks for o in chunk]
    points = []
    for i, t2 in enumerate(endpoints):
        own = tuple(outcomes[i * scheme.count : (i + 1) * scheme.count])
        signs = Counter(o.report.sign for o in own if o.report is not None and o.report.qualified)
        points.append(IndicatorPoint(t2, scheme.count, signs[BubbleSign.POSITIVE],
                                     signs[BubbleSign.NEGATIVE], own))
    return points


def confidence_at(
    series: PriceSeries,
    t2: int,
    scheme: WindowScheme = WindowScheme(),
    search_cfg: SearchConfig = SearchConfig(),
    filter_cfg: FilterConfig = FilterConfig(),
    base_seed: int = 0,
    workers: int = 1,
) -> IndicatorPoint:
    """Indicator at one endpoint: fit and qualify every scheme window.

    Each window gets the seed window_seed(base_seed, t2, length), so the
    value is reproducible, independent of execution order and of `workers`
    (an integer >= 1, as in scan), and identical on the series truncated
    at t2; search_cfg.seed is not read. The point, window outcomes
    included, equals the one point of a scan from t2 to t2.
    """
    t2 = integer("t2", t2)
    if t2 >= len(series):
        raise ValidationError(f"endpoint {t2} outside series of length {len(series)}")
    (point,) = _points(series, [t2], scheme, search_cfg, filter_cfg, base_seed, workers)
    return point


def scan(
    series: PriceSeries,
    t2_first: int,
    t2_last: int,
    t2_step: int = 1,
    scheme: WindowScheme = WindowScheme(),
    search_cfg: SearchConfig = SearchConfig(),
    filter_cfg: FilterConfig = FilterConfig(),
    base_seed: int = 0,
    workers: int = 1,
) -> list[IndicatorPoint]:
    """Indicator points for endpoints t2_first, t2_first+t2_step, ..., t2_last.

    Endpoints without max_len points of history are skipped (and logged once),
    keeping every reported fraction on the same denominator. Window fits
    run in at most `workers` processes, an integer >= 1 (1: this one);
    results are ordered by t2 and equal to a serial run. Window seeds come
    from window_seed(base_seed, t2, length); search_cfg.seed is not read.
    """
    t2_first, t2_last = integer("t2_first", t2_first), integer("t2_last", t2_last)
    t2_step = integer("t2_step", t2_step, 1)
    if t2_last < t2_first:
        raise ValidationError(f"empty scan range [{t2_first}, {t2_last}]")
    if t2_last >= len(series):
        raise ValidationError(
            f"scan end {t2_last} outside series of length {len(series)}"
        )

    endpoints = range(t2_first, t2_last + 1, t2_step)
    skipped = [t2 for t2 in endpoints if t2 < scheme.max_len - 1]
    if skipped:
        log.warning("skipping %d endpoints, %d to %d: fewer than %d points of history",
                    len(skipped), skipped[0], skipped[-1], scheme.max_len)
    return _points(series, endpoints[len(skipped) :], scheme, search_cfg, filter_cfg, base_seed,
                   workers)
