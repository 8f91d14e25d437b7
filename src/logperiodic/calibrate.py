"""Window calibration: profiled least squares + CMA-ES over (tc, m, omega).

For fixed nonlinear parameters the four linear ones (A, B, C1, C2) have a
closed-form least-squares solution via a 4x4 normal system; the remaining
3-dimensional profiled cost is minimized with restarted CMA-ES inside the
admissible box. The hazard-non-negativity (damping) condition is applied
as a hard rejection during the search, not as a soft penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cmaes import minimize_population
from .errors import DegenerateBasisError, DomainError, FitFailedError, ValidationError
from .model import LpplsParams
from .series import PriceSeries

__all__ = [
    "Window",
    "SearchConfig",
    "FitResult",
    "linear_solve",
    "cost",
    "fit",
]

# tc may approach the window end but never touch it, so ln(tc - t2) stays finite.
TC_GUARD = 0.01


@dataclass(frozen=True)
class Window:
    """Inclusive index range [t1, t2] of a fitting window; at least 8 points."""

    t1: int
    t2: int

    def __post_init__(self):
        if self.t1 < 0 or self.t2 <= self.t1:
            raise ValidationError(f"invalid window [{self.t1}, {self.t2}]")
        if self.length < 8:
            raise ValidationError(f"window [{self.t1}, {self.t2}] shorter than 8 points")

    @property
    def length(self) -> int:
        return self.t2 - self.t1 + 1

    def check_within(self, series: PriceSeries) -> None:
        if self.t2 >= len(series):
            raise ValidationError(
                f"window end {self.t2} outside series of length {len(series)}"
            )


@dataclass(frozen=True)
class SearchConfig:
    """Admissible box and CMA-ES budget for one window fit.

    Defaults reproduce the standard search space: m in [0,1], omega in
    [1,50], tc in [t2, t2 + (t2-t1)/3], damping >= 1. Population 7 is the
    4 + floor(3*ln(3)) default for a 3-dimensional search; each of the
    `restarts` runs gets `max_evaluations` cost evaluations.
    """

    m_min: float = 0.0
    m_max: float = 1.0
    omega_min: float = 1.0
    omega_max: float = 50.0
    tc_extension: float = 1.0 / 3.0
    damping_floor: float = 1.0
    population: int = 7
    max_evaluations: int = 2000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValidationError(f"population must be >= 4, got {self.population}")
        if not (self.m_min < self.m_max and self.omega_min < self.omega_max):
            raise ValidationError("search bounds must be non-empty intervals")
        if self.tc_extension <= 0:
            raise ValidationError("tc_extension must be positive")
        if self.max_evaluations < self.population + 1 or self.restarts < 1:
            raise ValidationError("search budget too small")

    def tc_bounds(self, window: Window) -> tuple[float, float]:
        return float(window.t2), float(window.t2) + self.tc_extension * (window.t2 - window.t1)

    def with_seed(self, seed: int) -> "SearchConfig":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class FitResult:
    """Best calibration found for one window."""

    params: LpplsParams
    cost: float
    n_points: int
    converged: bool
    evaluations: int


def _window_arrays(series: PriceSeries, window: Window) -> tuple[np.ndarray, np.ndarray]:
    window.check_within(series)
    t = np.arange(window.t1, window.t2 + 1, dtype=float)
    y = series.log_prices[window.t1 : window.t2 + 1]
    return t, y


# Largest accepted condition estimate (eigenvalue ratio) of the 4x4 normal matrix.
_COND_CAP = 1e12
_EYE4 = np.eye(4)


def _scratch(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Work arrays of _profile for up to `rows` rows of n points.

    They are the (rows, 4, n) design matrices and four (rows, n) temporaries.
    """
    return np.empty((rows, 4, n)), np.empty((4, rows, n))


def _profile(t: np.ndarray, y: np.ndarray, points,
             scratch=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profiled least squares for a batch of (tc, m, omega) rows.

    `points` is a (k, 3) array. For each row the design matrix is
    [1, f, g, h] with f=(tc-t)^m, g=f*cos(w ln(tc-t)), h=f*sin(w ln(tc-t)),
    and the result is (beta, sse, ok): the (k, 4) least-squares
    (A, B, C1, C2) from the normal system, the (k,) residual sums of
    squares, and the (k,) admissible mask. A row is admissible when tc
    exceeds the window end, its normal matrix is finite, and the matrix's
    condition estimate is at most _COND_CAP. Rejected rows have sse = +inf
    and an undefined beta; they never change the other rows.

    The large intermediates are written into `scratch`, a _scratch of at
    least k rows for this window, or into fresh arrays when it is None.
    Every row read is written first, so the result does not depend on what
    the scratch held.
    """
    tc, m, omega = np.asarray(points, dtype=float).T
    k = tc.size
    if scratch is None:
        scratch = _scratch(k, t.size)
    x = scratch[0][:k]
    ldt, u, scale, fit = scratch[1][:, :k]
    # Rows that fail a check produce inf/nan (log of tc-t <= 0, overflowing
    # powers); the mask rejects them, so their warnings are noise.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.subtract(tc[:, None], t, out=ldt)
        ok = ldt[:, -1] > 0.0
        np.log(ldt, out=ldt)
        x[:, 0] = 1.0
        np.multiply(m[:, None], ldt, out=x[:, 1])
        np.exp(x[:, 1], out=x[:, 1])
        # cos and sin of w ln(tc-t) from u, the tangent of the half angle:
        # cos = (1-u^2)/(1+u^2), sin = 2u/(1+u^2). The identities are exact,
        # the rounding stays at machine epsilon, and one tan costs less than
        # a cos plus a sin.
        np.multiply(0.5 * omega[:, None], ldt, out=u)
        np.tan(u, out=u)
        u2 = np.multiply(u, u, out=ldt)
        np.add(u2, 1.0, out=scale)
        np.divide(x[:, 1], scale, out=scale)
        np.multiply(np.subtract(1.0, u2, out=u2), scale, out=x[:, 2])
        np.multiply(np.multiply(u, 2.0, out=u), scale, out=x[:, 3])
        gram = x @ x.transpose(0, 2, 1)
        ok &= np.isfinite(gram).all(axis=(1, 2))
        # Rejected rows are swapped for the identity, so eigvalsh and solve
        # never see inf/nan or a singular matrix from a neighbour.
        gram = np.where(ok[:, None, None], gram, _EYE4)
        eig = np.linalg.eigvalsh(gram)
        ok &= (eig[:, -1] > 0.0) & (eig[:, 0] > eig[:, -1] / _COND_CAP)
        gram = np.where(ok[:, None, None], gram, _EYE4)
        beta = np.linalg.solve(gram, (x @ y)[..., None])[..., 0]
        np.matmul(beta[:, None, :], x, out=fit[:, None, :])
        resid = np.subtract(y, fit, out=fit)
        sse = np.einsum("kn,kn->k", resid, resid)
    return beta, np.where(ok, sse, np.inf), ok


def _profile_one(t, y, tc, m, omega) -> tuple[np.ndarray, float]:
    """(beta, sse) of one (tc, m, omega); raises instead of masking."""
    if tc - t[-1] <= 0.0:
        raise DomainError(f"tc={tc} does not exceed window end {t[-1]}")
    beta, sse, ok = _profile(t, y, [(tc, m, omega)])
    if not ok[0]:
        raise DegenerateBasisError(
            f"normal matrix not finite or condition above {_COND_CAP:g} "
            f"at tc={tc}, m={m}, omega={omega}"
        )
    return beta[0], float(sse[0])


def linear_solve(series: PriceSeries, window: Window, tc: float, m: float, omega: float):
    """Analytic minimizer (A, B, C1, C2) of the squared log-price residuals.

    Raises DomainError when tc does not exceed the window end, and
    DegenerateBasisError when the 4x4 normal system is not finite or
    numerically singular (condition estimate above 1e12); callers in the
    nonlinear search treat both as a rejected candidate.
    """
    t, y = _window_arrays(series, window)
    beta, _ = _profile_one(t, y, tc, m, omega)
    return float(beta[0]), float(beta[1]), float(beta[2]), float(beta[3])


def cost(series: PriceSeries, window: Window, tc: float, m: float, omega: float) -> float:
    """Profiled cost: residual SSE at the linear_solve minimizer."""
    t, y = _window_arrays(series, window)
    _, sse = _profile_one(t, y, tc, m, omega)
    return sse


def _objective(t, y, cfg: SearchConfig):
    """Profiled cost of a (k, 3) population, +inf for inadmissible rows.

    Besides the kernel's rejections, a row whose damping ratio
    m|B| / (omega sqrt(C1^2 + C2^2)) falls below the floor is rejected.
    """
    floor = cfg.damping_floor
    scratch = None  # kernel work arrays, kept at the largest batch seen

    def func(points):
        nonlocal scratch
        if scratch is None or len(scratch[0]) < len(points):
            scratch = _scratch(len(points), t.size)
        beta, sse, _ = _profile(t, y, points, scratch)
        if floor > 0.0:
            m, omega = points[:, 1], points[:, 2]
            # the undefined beta of rejected rows may overflow; their sse is inf
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                c = np.hypot(beta[:, 2], beta[:, 3])
                damped = (c > 0.0) & (m * np.abs(beta[:, 1]) / (omega * c) < floor)
            sse = np.where(damped, np.inf, sse)
        return sse

    return func


def _result_at(t, y, tc, m, omega, n_points, evaluations) -> FitResult:
    beta, sse = _profile_one(t, y, tc, m, omega)
    params = LpplsParams(
        tc=float(tc), m=float(m), omega=float(omega),
        A=float(beta[0]), B=float(beta[1]), C1=float(beta[2]), C2=float(beta[3]),
    )
    return FitResult(params=params, cost=sse, n_points=n_points,
                     converged=True, evaluations=evaluations)


def fit(series: PriceSeries, window: Window, cfg: SearchConfig = SearchConfig()) -> FitResult:
    """Calibrate one window: CMA-ES over (tc, m, omega), analytic linear solve.

    Deterministic given cfg.seed. Raises FitFailedError if no admissible
    candidate was found (every sampled point degenerate or rejected by the
    damping floor); garbage is never returned silently.
    """
    t, y = _window_arrays(series, window)
    tc_lo, tc_hi = cfg.tc_bounds(window)
    lower = np.array([tc_lo + TC_GUARD, cfg.m_min, cfg.omega_min])
    upper = np.array([tc_hi, cfg.m_max, cfg.omega_max])
    if upper[0] <= lower[0]:
        raise ValidationError("tc search interval collapsed; window too short for guard")

    rng = np.random.default_rng(cfg.seed)
    result = minimize_population(
        _objective(t, y, cfg),
        lower,
        upper,
        popsize=cfg.population,
        max_evals=cfg.max_evaluations,
        restarts=cfg.restarts,
        rng=rng,
    )
    if not math.isfinite(result.cost):
        raise FitFailedError(
            f"no admissible fit in window [{window.t1}, {window.t2}] "
            f"({result.evaluations} evaluations)"
        )
    tc, m, omega = result.x
    return _result_at(t, y, tc, m, omega, window.length, result.evaluations)

