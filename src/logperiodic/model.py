"""The log-periodic power law singularity (LPPLS) log-price formula.

The model describes expected log price before a critical time tc as a
power law decorated with oscillations periodic in ln(tc - t):

    A + B*(tc-t)^m + C1*(tc-t)^m * cos(omega*ln(tc-t))
                   + C2*(tc-t)^m * sin(omega*ln(tc-t))

C1/C2 are the linearized form of an oscillation amplitude C and phase phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["LpplsParams", "evaluate", "damping", "phase_amplitude"]


@dataclass(frozen=True)
class LpplsParams:
    """The seven-parameter set: three nonlinear (tc, m, omega), four linear.

    tc is a real-valued trading-step index (fractional values allowed so the
    singularity can sit between observations). B < 0 marks a positive bubble
    (super-exponential rise), B > 0 a negative one.
    """

    tc: float
    m: float
    omega: float
    A: float
    B: float
    C1: float
    C2: float

    def __post_init__(self):
        for name in ("tc", "m", "omega", "A", "B", "C1", "C2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"LpplsParams.{name} must be finite, got {value}")


def evaluate(params: LpplsParams, t):
    """Model log price at trading step(s) t, which must precede tc.

    Accepts a scalar or array; returns the same shape.
    """
    t_arr = np.asarray(t, dtype=float)
    dt = params.tc - t_arr
    if np.any(dt <= 0.0):
        raise DomainError(f"evaluate requires t < tc={params.tc}")
    ldt = np.log(dt)
    power = np.exp(params.m * ldt)
    angle = params.omega * ldt
    out = params.A + power * (params.B + params.C1 * np.cos(angle) + params.C2 * np.sin(angle))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def damping(m, omega=None, B=None, C1=None, C2=None):
    """m*|B| / (omega * sqrt(C1^2 + C2^2)) of an LpplsParams, or elementwise of arrays.

    damping(params) reads the five values of an LpplsParams and returns a
    float; damping(m, omega, B, C1, C2) takes numbers or arrays that
    broadcast and returns an array. Values >= 1 keep the implied crash
    hazard rate non-negative. The ratio is +inf where C1 = C2 = 0: without
    oscillations the hazard is trivially non-negative, whatever B is.
    damping(params) raises DomainError for omega = 0; the array form gives
    inf or nan there, and nan wherever a value is nan, without a warning.
    """
    if isinstance(m, LpplsParams):
        if m.omega == 0.0:
            raise DomainError("damping is undefined for omega = 0")
        return float(damping(m.m, m.omega, m.B, m.C1, m.C2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.hypot(C1, C2)
        return np.where(c == 0.0, np.inf, m * np.abs(B) / (np.abs(omega) * c))


def phase_amplitude(params: LpplsParams) -> tuple[float, float]:
    """Oscillation amplitude C = sqrt(C1^2+C2^2) and phase phi = atan2(C2, C1).

    (0, 0) by convention when both amplitudes vanish. Reconstructing
    C1 = C*cos(phi), C2 = C*sin(phi) reproduces the inputs to machine
    precision.
    """
    c = math.hypot(params.C1, params.C2)
    phi = math.atan2(params.C2, params.C1)
    return c, phi
