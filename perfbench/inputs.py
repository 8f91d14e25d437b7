"""Seeded workload inputs, generated without the library under test.

Both desk series have the same shape: SERIES_LEN daily closes whose regime
ends at ANCHOR (the bubble end), followed by a falling crash segment. The
bubble is the LPPLS log-price formula with stationary AR(1) noise; the null
is exponential drift with white noise, the no-bubble (FTSE-like) analogue.
The series are written as `date,close` CSV and read back through the
library's `ingest`, so a change to `logperiodic.synth` cannot move a
workload.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

SERIES_LEN = 680
ANCHOR = 659            # last bubble (or drift) index; the crash starts after it
START_DATE = dt.date(2000, 1, 3)

# Generating LPPLS parameters of the bubble. The oscillation amplitude is
# 0.9 of the damping limit, so the truth lies inside the admissible box.
TRUTH_TC = 670.0
TRUTH_M = 0.5
TRUTH_OMEGA = 8.0
TRUTH_A = 8.0
TRUTH_B = -0.8
_C = 0.9 * TRUTH_M * abs(TRUTH_B) / TRUTH_OMEGA
TRUTH_C1 = 0.6 * _C
TRUTH_C2 = 0.8 * _C

NOISE_SIGMA = 0.004
NOISE_PHI = 0.4
NULL_DRIFT = 0.0015


def _trading_dates(n: int) -> list[dt.date]:
    out, day = [], START_DATE
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _crash(last_log_price: float, rng: np.random.Generator) -> np.ndarray:
    steps = SERIES_LEN - ANCHOR - 1
    return last_log_price + np.cumsum(-0.01 + 0.01 * rng.standard_normal(steps))


def bubble_log_prices(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    t = np.arange(ANCHOR + 1, dtype=float)
    ldt = np.log(TRUTH_TC - t)
    power = np.exp(TRUTH_M * ldt)
    angle = TRUTH_OMEGA * ldt
    clean = TRUTH_A + power * (
        TRUTH_B + TRUTH_C1 * np.cos(angle) + TRUTH_C2 * np.sin(angle)
    )
    innovations = rng.normal(0.0, NOISE_SIGMA, t.size)
    noise = np.empty(t.size)
    noise[0] = innovations[0] / math.sqrt(1.0 - NOISE_PHI**2)
    for i in range(1, t.size):
        noise[i] = NOISE_PHI * noise[i - 1] + innovations[i]
    bubble = clean + noise
    return np.concatenate([bubble, _crash(bubble[-1], rng)])


def null_log_prices(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    t = np.arange(ANCHOR + 1, dtype=float)
    drift = 5.0 + NULL_DRIFT * t + NOISE_SIGMA * rng.standard_normal(t.size)
    return np.concatenate([drift, _crash(drift[-1], rng)])


def csv_text(log_prices: np.ndarray) -> str:
    rows = ["date,close"]
    for day, lp in zip(_trading_dates(log_prices.size), log_prices):
        rows.append(f"{day.isoformat()},{float(np.exp(lp))!r}")
    return "\n".join(rows) + "\n"
