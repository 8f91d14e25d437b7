"""Filter battery deciding whether a calibrated window is a valid bubble fit.

Seven conditions are checked: tightened ranges on m, omega and tc, a
minimum oscillation count, a cap on the relative price error, spectral
significance of the detrended residual (Lomb periodogram), and mean
reversion of the fit residuals (AR(1) stationarity). A fit qualifies only
if all seven hold; failures are reported per condition, never thrown.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .calibrate import FitResult, Window, _window_arrays
from .errors import DomainError, ValidationError
from .model import LpplsParams, evaluate
from .series import PriceSeries

__all__ = [
    "FilterConfig",
    "BubbleSign",
    "QualificationReport",
    "LombResult",
    "OuResult",
    "oscillation_count",
    "max_relative_error",
    "detrended_residual",
    "lomb_test",
    "ar1_test",
    "ou_test",
    "qualify",
]


class BubbleSign(enum.Enum):
    POSITIVE = "positive-bubble"      # B < 0: super-exponential rise
    NEGATIVE = "negative-bubble"      # B > 0: super-exponential decline
    INDETERMINATE = "indeterminate"   # B = 0


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds of the qualification battery.

    The ranges are strict subsets of the calibration search box. The
    oscillation divisor defaults to 2 and may be set to pi or 2*pi; the
    literature is not unanimous on which normalization the 2.5 floor
    belongs to.
    """

    m_min: float = 0.01
    m_max: float = 0.99
    omega_min: float = 2.0
    omega_max: float = 25.0
    tc_extension: float = 0.2
    oscillation_threshold: float = 2.5
    oscillation_divisor: float = 2.0
    max_rel_error: float = 0.20
    lomb_alpha: float = 0.05
    ou_alpha: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            if math.isnan(getattr(self, f.name)):
                raise ValidationError(f"filter {f.name} must not be nan")
        if self.m_min > self.m_max or self.omega_min > self.omega_max:
            raise ValidationError(f"filter ranges must not be empty, got m in [{self.m_min}, {self.m_max}]"
                                  f" and omega in [{self.omega_min}, {self.omega_max}]")
        if not 0 < self.omega_min < self.omega_max < math.inf:
            raise ValidationError(f"filter omega range [{self.omega_min}, {self.omega_max}] is not a band"
                                  " the Lomb test can scan: it needs 0 < omega_min < omega_max < inf")
        if self.oscillation_threshold <= 0 or self.oscillation_divisor <= 0:
            raise ValidationError("oscillation threshold and divisor must be positive")
        if not 0 < self.lomb_alpha < 1 or not 0 < self.ou_alpha < 1:
            raise ValidationError("significance levels must lie in (0, 1)")
        if self.tc_extension <= 0 or self.max_rel_error <= 0:
            raise ValidationError("tc_extension and max_rel_error must be positive")


@dataclass(frozen=True)
class QualificationReport:
    """Per-condition outcomes plus the metrics behind them.

    A metric that was not computed is None, so equal reports compare equal:
    oscillation_count when tc does not exceed the window end, ar1_coefficient
    then too, and for a window under 12 points or when ar1_test gives nan.
    """

    m_in_range: bool
    omega_in_range: bool
    tc_in_range: bool
    oscillations_ok: bool
    rel_error_ok: bool
    lomb_ok: bool
    ou_ok: bool
    oscillation_count: float | None
    max_relative_error: float
    lomb_false_alarm: float
    ar1_coefficient: float | None
    qualified: bool
    sign: BubbleSign


class LombResult(NamedTuple):
    peak_power: float
    false_alarm_probability: float
    passed: bool
    peak_frequency: float


class OuResult(NamedTuple):
    ar1_coefficient: float
    passed: bool
    t_stat: float
    p_value: float


def oscillation_count(params: LpplsParams, window: Window,
                      divisor: float = FilterConfig.oscillation_divisor) -> float:
    """(omega/divisor) * ln((tc-t1)/(tc-t2)): oscillations resolvable in the window."""
    if params.tc <= window.t2:
        raise DomainError(f"tc={params.tc} must exceed window end {window.t2}")
    return (params.omega / divisor) * math.log(
        (params.tc - window.t1) / (params.tc - window.t2)
    )


def max_relative_error(series: PriceSeries, window: Window, params: LpplsParams) -> float:
    """Worst |fitted price - price| / price over the window (prices, not logs)."""
    t, _ = _window_arrays(series, window)
    with np.errstate(over="ignore"):
        fitted = np.exp(evaluate(params, t))
    actual = series.prices[window.t1 : window.t2 + 1]
    return float(np.max(np.abs(fitted - actual) / actual))


def detrended_residual(
    series: PriceSeries, window: Window, params: LpplsParams
) -> tuple[np.ndarray, np.ndarray]:
    """Residual after removing A + B*(tc-t)^m, rescaled by (tc-t)^-m.

    Returns (x, r) with x = ln(tc - t), strictly decreasing in t. On data
    generated exactly from the model, r is the pure sinusoid
    C1*cos(omega*x) + C2*sin(omega*x).
    """
    t, y = _window_arrays(series, window)
    if params.tc <= window.t2:
        raise DomainError(f"tc={params.tc} must exceed window end {window.t2}")
    dt = params.tc - t
    x = np.log(dt)
    power = dt**params.m
    r = (y - params.A - params.B * power) / power
    return x, r


def _lomb_power(x: np.ndarray, r: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Lomb periodogram of r(x) at angular frequencies freqs, with the tau shift.

    Follows the default path of scipy.signal.lombscargle (unit weights
    scaled by 1/n, no floating mean, power in units of amplitude**2 * n/4)
    operation for operation, so the two agree bit for bit.
    """
    n = x.size
    w = np.full((1, n), 1.0 / n)
    wt = freqs * x[:, None]
    c, s = np.cos(wt), np.sin(wt)
    cc = w @ (c * c)
    tau = 0.5 * np.arctan2(2.0 * (w @ (c * s)), cc - (1.0 - cc))
    c, s = np.cos(wt - tau), np.sin(wt - tau)
    wr = w * r
    rc, rs = wr @ c, wr @ s
    cc = w @ (c * c)
    eps = np.finfo(float).epsneg
    cc, ss = np.maximum(cc, eps), np.maximum(1.0 - cc, eps)
    return (2.0 * (rc / cc * rc + rs / ss * rs))[0] * (n / 4.0)


def lomb_test(
    residual_pairs: tuple[np.ndarray, np.ndarray],
    alpha_sig: float = FilterConfig.lomb_alpha,
    omega_range: tuple[float, float] = (FilterConfig.omega_min, FilterConfig.omega_max),
) -> LombResult:
    """Lomb-Scargle significance of the detrended residual.

    The periodogram is scanned on angular frequencies omega_range spaced at
    the natural (Rayleigh) resolution 2*pi/span(x), so the scanned count M
    doubles as the independent-frequency count in the classical false-alarm
    estimate 1 - (1 - exp(-z))^M, with z the peak power over the residual
    variance. The decision only uses the false-alarm probability.
    """
    x, r = residual_pairs
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float)
    if x.size != r.size:
        raise ValidationError("residual pairs must have equal length")
    if x.size < 8:
        raise ValidationError(f"need at least 8 residual pairs, got {x.size}")
    if not np.isfinite(x).all():
        raise ValidationError("residual abscissae must be finite")
    lo, hi = omega_range
    if not 0 < lo < hi < math.inf:
        raise ValidationError(f"bad angular frequency range {omega_range}")

    variance = float(np.var(r, ddof=1))
    if variance <= 0.0 or not math.isfinite(variance):
        return LombResult(0.0, 1.0, False, float("nan"))

    span = float(np.max(x) - np.min(x))
    if span <= 0.0:
        return LombResult(0.0, 1.0, False, float("nan"))
    delta = 2.0 * math.pi / span
    n_freq = max(1, int(math.floor((hi - lo) / delta)) + 1)
    freqs = lo + delta * np.arange(n_freq)

    power = _lomb_power(x, r - r.mean(), freqs)
    peak_idx = int(np.argmax(power))
    z = float(power[peak_idx]) / variance
    single = math.exp(-z)
    if single >= 1.0:
        fap = 1.0
    else:
        fap = -math.expm1(n_freq * math.log1p(-single))
    return LombResult(z, fap, bool(fap <= alpha_sig), float(freqs[peak_idx]))


# MacKinnon (1994) response-surface approximation of the Dickey-Fuller
# t-distribution, no-constant variant: p = Phi(polynomial(t)).
_TAU_STAR_NC = -1.04
_TAU_MIN_NC = -19.04
_TAU_MAX_NC = 1.51
_TAU_SMALLP_NC = (0.6344, 1.2378, 3.2496e-2)
_TAU_LARGEP_NC = (0.4797, 9.3557e-1, -0.6999e-1, 3.3066e-2)


def _norm_cdf(value: float) -> float:
    return 0.5 * math.erfc(-value / math.sqrt(2.0))


def _mackinnon_p_nc(t_stat: float) -> float:
    if t_stat > _TAU_MAX_NC:
        return 1.0
    if t_stat < _TAU_MIN_NC:
        return 0.0
    coefs = _TAU_SMALLP_NC if t_stat <= _TAU_STAR_NC else _TAU_LARGEP_NC
    poly = 0.0
    for power, coef in enumerate(coefs):
        poly += coef * t_stat**power
    return _norm_cdf(poly)


def ar1_test(residuals: np.ndarray, alpha: float = FilterConfig.ou_alpha) -> OuResult:
    """Mean-reversion check: AR(1) fit plus Dickey-Fuller unit-root rejection.

    Fits eps[i+1] = phi * eps[i] + u by least squares (no intercept) and
    tests H0: phi = 1 with the t-statistic (phi-1)/se against the
    Dickey-Fuller distribution. Passing requires rejecting the unit root
    at `alpha` and 0 < phi < 1 (stationary, mean-reverting).
    """
    eps = np.asarray(residuals, dtype=float)
    if eps.size < 12:
        raise ValidationError(f"need at least 12 residuals, got {eps.size}")
    if not np.all(np.isfinite(eps)):
        return OuResult(float("nan"), False, float("nan"), 1.0)
    lag = eps[:-1]
    lead = eps[1:]
    denom = float(lag @ lag)
    if denom <= 0.0 or float(np.var(eps)) <= 0.0:
        return OuResult(float("nan"), False, float("nan"), 1.0)
    phi = float(lag @ lead) / denom
    resid = lead - phi * lag
    dof = lag.size - 1
    sigma2 = float(resid @ resid) / dof
    se = math.sqrt(sigma2 / denom)
    if se == 0.0:
        t_stat = -math.inf if phi < 1.0 else math.inf
    else:
        t_stat = (phi - 1.0) / se
    p_value = _mackinnon_p_nc(t_stat)
    passed = p_value <= alpha and 0.0 < phi < 1.0
    return OuResult(phi, passed, t_stat, p_value)


def ou_test(
    series: PriceSeries, window: Window, params: LpplsParams, alpha: float = FilterConfig.ou_alpha
) -> OuResult:
    """ar1_test applied to the log-price fit residuals of one window."""
    t, y = _window_arrays(series, window)
    eps = evaluate(params, t) - y
    return ar1_test(eps, alpha)


def qualify(
    fit: FitResult,
    series: PriceSeries,
    window: Window,
    cfg: FilterConfig = FilterConfig(),
) -> QualificationReport:
    """Run the full battery on one fit; qualified = AND of all seven checks."""
    p = fit.params
    tc_hi = window.t2 + cfg.tc_extension * (window.t2 - window.t1)

    osc = None
    rel_err = float("inf")
    lomb = LombResult(0.0, 1.0, False, float("nan"))
    ou = OuResult(float("nan"), False, float("nan"), 1.0)
    if p.tc > window.t2:
        osc = oscillation_count(p, window, cfg.oscillation_divisor)
        rel_err = max_relative_error(series, window, p)
        pairs = detrended_residual(series, window, p)
        lomb = lomb_test(pairs, cfg.lomb_alpha, (cfg.omega_min, cfg.omega_max))
        if window.length >= 12:
            ou = ou_test(series, window, p, cfg.ou_alpha)

    # report field -> outcome; qualified is the AND of exactly these
    checks = {
        "m_in_range": cfg.m_min <= p.m <= cfg.m_max,
        "omega_in_range": cfg.omega_min <= p.omega <= cfg.omega_max,
        "tc_in_range": window.t2 <= p.tc <= tc_hi,
        "oscillations_ok": osc is not None and osc >= cfg.oscillation_threshold,
        "rel_error_ok": rel_err <= cfg.max_rel_error,
        "lomb_ok": lomb.passed,
        "ou_ok": ou.passed,
    }

    if p.B < 0:
        sign = BubbleSign.POSITIVE
    elif p.B > 0:
        sign = BubbleSign.NEGATIVE
    else:
        sign = BubbleSign.INDETERMINATE

    return QualificationReport(
        **checks,
        oscillation_count=osc,
        max_relative_error=rel_err,
        lomb_false_alarm=lomb.false_alarm_probability,
        ar1_coefficient=None if math.isnan(ou.ar1_coefficient) else ou.ar1_coefficient,
        qualified=all(checks.values()),
        sign=sign,
    )
