"""Synthetic price trajectories with known ground-truth parameters.

Used for parameter-recovery tests, filter calibration and end-to-end
pipeline checks: log prices are the model curve plus seeded Gaussian
noise (optionally AR(1)-correlated, matching the mean-reverting residual
assumption behind the qualification battery).
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer
from .model import LpplsParams, evaluate
from .series import PriceSeries

__all__ = ["SynthSpec", "generate", "trading_dates"]

DEFAULT_START_DATE = _dt.date(2000, 1, 3)  # a Monday


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic series.

    Model time is 0..n-1 at unit spacing, so series indices coincide with
    model time and params.tc is directly comparable to fitted values.
    noise_sigma is the innovation standard deviation; with noise_phi > 0
    the noise is a stationary AR(1) process instead of white.
    """

    params: LpplsParams
    n: int
    noise_sigma: float = 0.0
    seed: int = 0
    noise_phi: float = 0.0
    start_date: _dt.date | None = DEFAULT_START_DATE

    def __post_init__(self):
        for name, least in (("n", 2), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.noise_phi < 1.0:
            raise ValidationError(f"noise_phi must lie in [0, 1), got {self.noise_phi}")
        if self.n - 1 >= self.params.tc:
            raise ValidationError(
                f"time range must end before tc={self.params.tc}, got t_end={float(self.n - 1)}"
            )


def trading_dates(start: _dt.date, n: int) -> tuple[_dt.date, ...]:
    """n consecutive weekdays starting at (or after) `start`."""
    days = np.busday_offset(np.datetime64(start, "D"), np.arange(n), roll="forward")
    if days.size and days[-1] > np.datetime64(_dt.date.max, "D"):
        raise ValidationError(
            f"{n} trading days from {start.isoformat()} run past {_dt.date.max.isoformat()}"
        )
    return tuple(days.tolist())


def generate(spec: SynthSpec) -> PriceSeries:
    """Deterministic series: price = exp(model log price + seeded noise)."""
    t = np.linspace(0.0, spec.n - 1, spec.n)
    log_prices = evaluate(spec.params, t)
    if spec.noise_sigma > 0.0:
        rng = np.random.default_rng(spec.seed)
        noise = rng.normal(0.0, spec.noise_sigma, spec.n)
        if spec.noise_phi > 0.0:
            eps = np.empty(spec.n)
            eps[0] = noise[0] / np.sqrt(1.0 - spec.noise_phi**2)
            for i in range(1, spec.n):
                eps[i] = spec.noise_phi * eps[i - 1] + noise[i]
            noise = eps
        log_prices = log_prices + noise
    dates = trading_dates(spec.start_date, spec.n) if spec.start_date is not None else None
    return PriceSeries(np.exp(log_prices), dates, stride=1)
