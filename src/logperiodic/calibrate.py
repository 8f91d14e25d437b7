"""Window calibration: profiled least squares + CMA-ES over (tc, m, omega).

For fixed nonlinear parameters the four linear ones (A, B, C1, C2) have a
closed-form least-squares solution via a 4x4 normal system; the remaining
3-dimensional profiled cost is minimized with restarted CMA-ES inside the
admissible box. The hazard-non-negativity (damping) condition is applied
as a hard rejection during the search, not as a soft penalty.

The search does not finish a fit alone: once a window's leading restart
is the last one running and its step is below _HANDOFF box units, it
stops, and a bounded Levenberg-Marquardt on the profiled residual vector
(the variable-projection form of Filimonov and Sornette, Physica A 392,
2013) takes the best point to its local minimum. The polish keeps the
damping floor as the search does, accepting a point only when its cost is
strictly lower and its ratio at or above the floor, and treats the floor
as one more inequality on (tc, m, omega) beside the box: a leader on the
floor slides along it to the constrained minimum. A window whose polish
cannot finish the fit, for one on a ridge too flat for it, is searched
again without the handoff, as the search alone would have fitted it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cmaes import minimize_problems
from .errors import DegenerateBasisError, DomainError, FitFailedError, ValidationError, integer
from .model import LpplsParams, damping
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
        object.__setattr__(self, "t1", integer("t1", self.t1, 0))
        object.__setattr__(self, "t2", integer("t2", self.t2))
        if self.t2 <= self.t1:
            raise ValidationError(f"invalid window [{self.t1}, {self.t2}]")
        if self.length < 8:
            raise ValidationError(f"window [{self.t1}, {self.t2}] shorter than 8 points")

    @property
    def length(self) -> int:
        return self.t2 - self.t1 + 1


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
        for name in ("m_min", "m_max", "omega_min", "omega_max", "tc_extension", "damping_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name, least in {"population": 4, "max_evaluations": None, "restarts": 1, "seed": 0}.items():
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        if not (self.m_min < self.m_max and self.omega_min < self.omega_max):
            raise ValidationError("search bounds must be non-empty intervals")
        if self.tc_extension <= 0:
            raise ValidationError("tc_extension must be positive")
        if self.max_evaluations < self.population + 1:
            raise ValidationError("search budget too small")

    def tc_bounds(self, window: Window) -> tuple[float, float]:
        return float(window.t2), float(window.t2) + self.tc_extension * (window.t2 - window.t1)

    def with_seed(self, seed: int) -> "SearchConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class FitResult:
    """Best calibration found for one window."""

    params: LpplsParams
    cost: float
    evaluations: int


def _window_arrays(series: PriceSeries, window: Window) -> tuple[np.ndarray, np.ndarray]:
    if window.t2 >= len(series):
        raise ValidationError(f"window end {window.t2} outside series of length {len(series)}")
    t = np.arange(window.t1, window.t2 + 1, dtype=float)
    y = series.log_prices[window.t1 : window.t2 + 1]
    return t, y


# Largest accepted pivot ratio max(d) / min(d) of the LDL^T factor of the 4x4
# normal matrix; it bounds the matrix's condition number from below.
_COND_CAP = 1e12


def _ldl(a) -> np.ndarray:
    """LDL^T factor, in place, of each symmetric 4x4 matrix a[:, :, k] of the (4, 4, K) array a.

    Returns the (K,) mask of the admissible matrices: finite, with pivots
    that are positive and have a ratio max/min of at most _COND_CAP. The
    factor reads a's lower triangle and leaves the pivots d on its diagonal
    and each multiplier L[i, j] (i > j) of the unit lower triangle at
    a[j, i]. The first row's off-diagonal entries are never read, nor
    checked: a matrix with a non-finite a[0, 0] has a non-finite first
    pivot, which fails the pivot test.

    Right-looking Cholesky without pivoting in +, -, x and / only (Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 10): each column
    takes one divide for its multipliers and one outer-product update of
    the trailing block, whole columns of all K matrices at a time. Every
    entry sees the same operations in the same order as in a row-by-row
    factor, a_ij - L_i0 w_j0 - L_i1 w_j1 - ... with w_jk = L_jk d_k before
    its divide, so a matrix's bits depend neither on the others of its
    batch nor on whether the factor runs by rows or by columns.
    """
    ok = np.isfinite(a[1:]).all(axis=(0, 1))
    for k in range(3):
        np.divide(a[k + 1 :, k], a[k, k], a[k, k + 1 :])
        trailing = a[k + 1 :, k + 1 :]
        np.subtract(trailing, a[k, k + 1 :, None] * a[k + 1 :, k], trailing)
    d = a.diagonal().T
    # smallest > largest / cap also says smallest > 0: a largest pivot below 0
    # fails it, and nan pivots fail every comparison
    return ok & (d.min(axis=0) > d.max(axis=0) / _COND_CAP)


def _ldl_solve(a, rhs) -> np.ndarray:
    """Solutions, a (K, 4) array, of the (K, 4) right-hand sides rhs under an _ldl factor a.

    Forward substitution subtracts each solved entry from the entries below
    it. Back substitution must take an entry's terms in ascending order,
    x_i = z_i / d_i - L_(i+1)i x_(i+1) - ... - L_3i x_3, as a row-by-row
    solve does, so it forms each solved entry's products with the
    multipliers above it at once and subtracts them entry by entry.
    """
    z = rhs.T.copy()
    for k in range(3):
        np.subtract(z[k + 1 :], a[k, k + 1 :] * z[k], z[k + 1 :])
    x = np.empty_like(rhs)
    x0, x1, x2, x3 = np.divide(z, a.diagonal().T, x.T)
    p3 = a[:3, 3] * x3  # p3[i] = L_3i x_3
    np.subtract(x2, p3[2], x2)
    p2 = a[:2, 2] * x2
    np.subtract(x1, p2[1], x1)
    np.subtract(x1, p3[1], x1)
    p1 = a[0, 1] * x1
    np.subtract(x0, p1, x0)
    np.subtract(x0, p2[0], x0)
    np.subtract(x0, p3[0], x0)
    return x


class _Layout:
    """Where profile puts the rows of one `parts` list, kept while that list holds.

    `parts` lists (p, lo, hi) in row order: rows lo:hi of a call are
    window p's, whose (t, y) is arrays[p]. Each row of each window takes n
    contiguous points of the (7, size) array `work`, after the rows before
    it. Its work rows 0-3 hold the design [1, f, g, h], row 0 ones from the
    array's making on (profile never writes it), rows 4-6 ln(tc - t), the
    half-angle tangent u and the scale f / (1 + u^2), and row 4 then the
    fitted values and, when profile returns, the residuals. The layout
    holds each window's (k, 7, n) view of `work` and the views of it, of
    the normal matrices and of the right-hand sides that each pass of a
    call writes or reads, and the corner of each row's normal matrix, its
    point count n. `work` reuses a previous layout's array when it is
    large enough, so one kept array serves every call of a search; every
    element a call reads is written first.
    """

    def __init__(self, arrays, parts, work=None):
        self.parts = list(parts)
        counts = [hi - lo for _, lo, hi in self.parts]
        lengths = [arrays[p][0].size for p, _, _ in self.parts]
        size = sum(k * n for k, n in zip(counts, lengths))
        if work is None or work.shape[1] < size:
            work = np.empty((7, size))
            work[0] = 1.0
        self.work = work
        self.work_rows = tuple(work[:, :size])  # 1, f, g, h, ln(tc - t), u, scale
        rows = sum(counts)
        self.gram = np.empty((rows, 3, 4))  # rows 1-3 of each normal matrix
        self.rhs = np.empty((rows, 4))
        self.a = np.empty((4, 4, rows))  # the factor's copy; _ldl never writes a[0, 0]
        self.a[0, 0] = np.repeat(lengths, counts)
        self.sse = np.empty(rows)
        # per window, the operands of each pass over its rows
        self.differences, self.powers, self.normals, self.residuals = [], [], [], []
        start = 0
        for (p, lo, hi), k, n in zip(self.parts, counts, lengths):
            t, y = arrays[p]
            v = work[:, start : start + k * n].reshape(7, k, n).transpose(1, 0, 2)
            xk, ldt = v[:, :4], v[:, 4]
            self.differences.append((lo, hi, t, ldt))
            self.powers.append((lo, hi, ldt, v[:, 1], v[:, 5]))
            self.normals.append((xk[:, 1:], xk.transpose(0, 2, 1), self.gram[lo:hi],
                                 xk, y, self.rhs[lo:hi]))
            # row 4 is free for the fitted values once the design is built
            self.residuals.append((lo, hi, xk, ldt[:, None, :], y, ldt, self.sse[lo:hi]))
            start += k * n

    def profile(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Profiled least squares for a batch of (tc, m, omega) rows of several windows.

        `points` is a (K, 3) float array laid out by the layout's parts: rows
        points[lo:hi] belong to the window whose (t, y) is arrays[p]. For each
        row the design matrix is [1, f, g, h] with f=(tc-t)^m,
        g=f*cos(w ln(tc-t)), h=f*sin(w ln(tc-t)), and the result is
        (beta, sse): the (K, 4) least-squares (A, B, C1, C2) from the normal
        system and the (K,) residual sums of squares. A row is admissible
        when its normal matrix is finite and the LDL^T pivots of that matrix
        are positive with a ratio max/min of at most _COND_CAP. A row whose
        tc is at or before its window's end is never admissible: ln(tc-t) is
        -inf or nan at the end, so the half-angle tangent there, and with it
        g and h, is nan. A rejected row has sse = +inf, the one mark of a
        rejection, and an undefined beta; it never changes the other rows.

        All rows of all windows share one flat work array (see the class): only
        tc - t, m ln(tc-t) and w ln(tc-t)/2 read a row's own parameters and
        take one broadcast per window, and every other elementwise pass is one
        call over the whole array. Each window's normal matrices, right-hand
        sides and residuals are gemms on a (k, 4, n) view of it; one batched
        LDL^T (_ldl) then factors, checks and solves the normal systems of all
        K rows. The sse is the minimum of a quadratic, so the solve's error in
        beta moves it only at second order; the search's objective needs no
        more than the sse and the damping ratio, and _profile_one improves
        beta itself.
        """
        tc, m, omega = points.T
        _, f, g, h, ldt, u, scale = self.work_rows
        a = self.a
        # Rows that fail a check produce inf/nan (log of tc-t <= 0, overflowing
        # powers, a zero pivot); the mask rejects them, so their warnings are noise.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for lo, hi, t, out in self.differences:
                np.subtract(tc[lo:hi, None], t, out=out)
            np.log(ldt, out=ldt)
            half_omega = 0.5 * omega
            for lo, hi, logs, powers, angles in self.powers:
                np.multiply(m[lo:hi, None], logs, out=powers)
                np.multiply(half_omega[lo:hi, None], logs, out=angles)
            np.exp(f, out=f)
            # cos and sin of w ln(tc-t) from u, the tangent of the half angle:
            # cos = (1-u^2)/(1+u^2), sin = 2u/(1+u^2). The identities are exact,
            # the rounding stays at machine epsilon, and one tan costs less than
            # a cos plus a sin.
            np.tan(u, out=u)
            u2 = np.multiply(u, u, out=ldt)
            np.add(u2, 1.0, out=scale)
            np.divide(f, scale, out=scale)
            np.multiply(np.subtract(1.0, u2, out=u2), scale, out=g)
            np.multiply(np.multiply(u, 2.0, out=u), scale, out=h)
            # Rows 1-3 of the normal matrix as one gemm against all rows. `x @ x.T`
            # hands numpy one buffer twice, and it then calls syrk per 4x4
            # matrix, several times slower than gemm for long windows. The
            # matrix comes out exactly symmetric; its corner is a sum of n ones.
            for x_fgh, x_t, gram, xk, y, rhs in self.normals:
                np.matmul(x_fgh, x_t, out=gram)
                np.matmul(xk, y, out=rhs)
            a[1:] = self.gram.transpose(1, 2, 0)
            ok = _ldl(a)
            beta = _ldl_solve(a, self.rhs)
            for lo, hi, xk, fit_out, y, fit, sse in self.residuals:
                np.matmul(beta[lo:hi, None, :], xk, out=fit_out)
                resid = np.subtract(y, fit, out=fit)
                np.einsum("kn,kn->k", resid, resid, out=sse)
        return beta, np.where(ok, self.sse, np.inf)


def _profile_one(t, y, tc, m, omega) -> tuple[np.ndarray, float]:
    """(beta, sse) of one (tc, m, omega); raises instead of masking."""
    if tc - t[-1] <= 0.0:
        raise DomainError(f"tc={tc} does not exceed window end {t[-1]}")
    layout = _Layout([(t, y)], [(0, 0, 1)])
    beta, sse = layout.profile(np.array([[tc, m, omega]], dtype=float))
    if not math.isfinite(sse[0]):
        raise DegenerateBasisError(
            f"normal matrix not finite or pivot ratio above {_COND_CAP:g} "
            f"at tc={tc}, m={m}, omega={omega}"
        )
    # One refinement step, beta += G^-1 X^T r (the corrected seminormal
    # equations), under the same factor and against the residual in work row 4:
    # the normal-equation solve alone errs by about cond(G) * eps, up to 1e-8
    # relative on ill-conditioned rows. The sse is kept from before the step.
    _, _, xk, _, _, resid, _ = layout.residuals[0]
    np.matmul(xk, resid[..., None], out=layout.rhs[:, :, None])
    beta += _ldl_solve(layout.a, layout.rhs)
    return beta[0], float(sse[0])


def linear_solve(series: PriceSeries, window: Window, tc: float, m: float, omega: float):
    """Analytic minimizer (A, B, C1, C2) of the squared log-price residuals.

    Raises DomainError when tc does not exceed the window end, and
    DegenerateBasisError when the 4x4 normal system is not finite or
    numerically singular (a pivot of its LDL^T factor not positive, or a
    pivot ratio above 1e12). The nonlinear search rejects exactly these
    candidates, and also those whose damping ratio falls below the
    configured floor.
    """
    t, y = _window_arrays(series, window)
    beta, _ = _profile_one(t, y, tc, m, omega)
    return float(beta[0]), float(beta[1]), float(beta[2]), float(beta[3])


def cost(series: PriceSeries, window: Window, tc: float, m: float, omega: float) -> float:
    """Profiled cost: the residual SSE minimized over (A, B, C1, C2)."""
    t, y = _window_arrays(series, window)
    _, sse = _profile_one(t, y, tc, m, omega)
    return sse


def _objective(arrays, cfg: SearchConfig):
    """Profiled cost of the windows' populations, +inf for inadmissible rows.

    The objective of minimize_problems: problem p is the window whose
    (t, y) is arrays[p]. Besides the kernel's rejections, a row whose
    damping ratio (model.damping) falls below the floor is rejected.
    """
    floor = cfg.damping_floor
    layout = None  # the last call's; a new parts list gets a new one on the same work array

    def func(points, parts):
        nonlocal layout
        if layout is None or parts != layout.parts:
            layout = _Layout(arrays, parts, None if layout is None else layout.work)
        beta, sse = layout.profile(points)
        if floor > 0.0:
            # the undefined beta of rejected rows may give nan, never below the floor;
            # their sse is inf anyway
            sse = np.where(damping(points[:, 1], points[:, 2], *beta[:, 1:].T) < floor,
                           np.inf, sse)
        return sse

    return func


def _result_at(t, y, tc, m, omega, evaluations) -> FitResult:
    beta, sse = _profile_one(t, y, tc, m, omega)
    params = LpplsParams(
        tc=float(tc), m=float(m), omega=float(omega),
        A=float(beta[0]), B=float(beta[1]), C1=float(beta[2]), C2=float(beta[3]),
    )
    return FitResult(params=params, cost=sse, evaluations=evaluations)


def fit(series: PriceSeries, window: Window, cfg: SearchConfig = SearchConfig()) -> FitResult:
    """Calibrate one window: CMA-ES over (tc, m, omega), analytic linear solve.

    Deterministic given cfg.seed. Raises FitFailedError if no admissible
    candidate was found (every sampled point degenerate or rejected by the
    damping floor); garbage is never returned silently.
    """
    (result,) = _fit_windows(series, [window], cfg, [cfg.seed])
    if isinstance(result, FitFailedError):
        raise result
    return result


# The far-behind rule of the search (cmaes.minimize_problems): a restart whose
# best cost is still more than this many times its window's leader's after one
# TolFun history stops. The cost is a sum of squares, so the ratio is one of
# positive values, and at 10 the restart's residuals are about sqrt(10) = 3.2
# times the leader's. Half of it, 5, already stops a restart that would have
# gone on to take the lead: on the desk windows it loses that basin in one
# window (bubble seed 5, t2 = 667, n = 216, whose cost rises by 90%); 10 loses
# none there nor on the held-out windows.
_FAR_BEHIND = 10.0


# The handoff rule of the search (cmaes.minimize_problems): a window's lone
# leader, its last running restart, stops once its step is below this many box
# units, and the polish takes its best point on from there.
_HANDOFF = 1e-3

# The polish (_polish): its forward-difference step in box units, the relative
# cost decrease at or below which an accepted step ends it, and its iteration
# cap. Each iteration is one profile call of four rows a window.
_POLISH_STEP = 1e-7
_POLISH_TOL = 1e-12
_POLISH_ITERATIONS = 100
# How far above the damping floor, relative, a step on the floor aims: about a
# hundred times the rounding of the ratio on the desk windows (1e-12).
_FLOOR_MARGIN = 1e-10


def _polish(arrays, lowers, uppers, starts, floor):
    """A projected Levenberg-Marquardt on each window's residual vector, from starts[i].

    Window i, whose (t, y) is arrays[i], minimizes the sum of squares of its
    profiled residuals y - X beta over (tc, m, omega) in the box [lowers[i],
    uppers[i]], in box units and with Marquardt's diagonal scaling, with its
    damping ratio at or above the floor. The Jacobian is a forward difference
    of _POLISH_STEP box units in each coordinate, a backward one where the
    forward step would leave the box, and a coordinate on a face stays there
    while the gradient points out of the box. Each iteration is one
    _Layout.profile call for every unfinished window, four rows a window: the
    trial point, then its three steps. The residuals are those profile leaves
    in work row 4; the damping ratio of each row is model.damping of
    profile's beta, as the search's objective reads it, so the ratio's
    gradient is a difference of the same rows. A trial point is accepted
    only when its cost is strictly lower and its ratio is at or above the
    floor, so the start, the first trial, is kept unless something beats it;
    a rejected trial raises the damping of the next.

    The floor joins the faces as a constraint of the step once a trial with
    a lower cost has fallen below it; until then the window takes the same
    steps as without a floor. From then on a step whose linearised ratio
    falls short of the floor (aimed _FLOOR_MARGIN relative above it) is
    solved again by _floor_step, which holds it on the floor's tangent plane
    with one multiplier where that is the least step, and lets it go where
    the multiplier says the cost falls off the floor. That step's quadratic
    is the Lagrangian's, the cost's plus the multiplier times the ratio's
    bend, and the step is lifted along the ratio's gradient by what the bend
    takes from the ratio over its length: the bend is the most recent
    trial's shortfall against its linearised ratio over its squared length,
    taken as the same in every direction. A trial with a lower cost that the
    ratio's curvature still put below the floor is moved back once, along
    the ratio's gradient at the trial, before the damping is raised: a
    second-order correction (Nocedal and Wright, "Numerical Optimization",
    2nd ed., sections 15.6 and 18.3).

    A window converges when an accepted step lowers its cost by at most
    _POLISH_TOL relative, or when its next step is predicted to lower it by
    no more than that, the floor in play or not; it also ends, unconverged,
    when a difference step is inadmissible or after _POLISH_ITERATIONS
    iterations. Returns four arrays, one entry a window: its last accepted
    point, the profiled cost there, the rows it evaluated, and whether it
    converged. Every window takes the same steps alone as in any batch.
    """
    count = len(starts)
    constrained = floor > 0.0  # a ratio is never negative, so a floor at or below 0 binds nothing
    target = floor * (1.0 + _FLOOR_MARGIN)
    lower, upper = np.array(lowers, dtype=float), np.array(uppers, dtype=float)
    width = upper - lower
    x, trial = np.array(starts, dtype=float), np.array(starts, dtype=float)
    cost, ratio = np.full(count, np.inf), np.full(count, np.nan)
    grad, gauss, slope = np.zeros((count, 3)), np.zeros((count, 3, 3)), np.zeros((count, 3))
    lam, grow, predicted = np.full(count, 1e-3), np.full(count, 2.0), np.zeros(count)
    evaluations, converged = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
    # whether a trial with a lower cost has fallen below the floor, whether the
    # window's next trial is the correction of such a trial, and that correction
    met, retried, corrected = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool), trial.copy()
    # the trial's linearised ratio, the ratio's bend, and the floor's last multiplier
    expected, bend, mult = np.full(count, np.nan), np.zeros(count), np.zeros(count)
    active = np.arange(count)
    layout = None
    for _ in range(_POLISH_ITERATIONS):
        parts = [(i, 4 * k, 4 * k + 4) for k, i in enumerate(active.tolist())]
        if layout is None or parts != layout.parts:
            layout = _Layout(arrays, parts, None if layout is None else layout.work)
        at, w = trial[active], width[active]
        ahead = at + _POLISH_STEP * w
        stepped = np.where(ahead <= upper[active], ahead, at - _POLISH_STEP * w)
        points = np.repeat(at[:, None, :], 4, axis=1)
        points[:, [1, 2, 3], [0, 1, 2]] = stepped
        rows = points.reshape(-1, 3)
        beta, sse = layout.profile(rows)
        evaluations[active] += 4
        sse = sse.reshape(-1, 4)
        ratios = damping(rows[:, 1], rows[:, 2], *beta[:, 1:].T).reshape(-1, 4)
        # the Jacobian's columns in box units: the actual steps, as rounded
        scale = w / (stepped - at)
        going = np.ones(active.size, dtype=bool)
        for k, i in enumerate(active.tolist()):
            lowered = sse[k, 0] < cost[i]
            if constrained and (met[i] or lowered and ratios[k, 0] < floor):
                moved = (at[k] - x[i]) / w[k]
                drop, length = expected[i] - ratios[k, 0], float(np.sum(moved ** 2))
                bend[i] = drop / length if drop > 0.0 and length > 0.0 else 0.0
            if lowered and ratios[k, 0] >= floor:
                if math.isfinite(cost[i]):
                    gain = (cost[i] - sse[k, 0]) / predicted[i]
                    # Nielsen's update; the floor keeps the system positive definite
                    lam[i] = max(lam[i] * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-12)
                    grow[i] = 2.0
                    converged[i] = cost[i] - sse[k, 0] <= _POLISH_TOL * sse[k, 0]
                x[i], cost[i], ratio[i] = at[k], sse[k, 0], ratios[k, 0]
                resid = layout.residuals[k][5]  # work row 4: the point's residuals, then its steps'
                going[k] = not converged[i] and bool(np.isfinite(sse[k, 1:]).all())
                jac = (resid[1:] - resid[0]) * scale[k, :, None]
                grad[i], gauss[i] = jac @ resid[0], jac @ jac.T
                slope[i] = (ratios[k, 1:] - ratios[k, 0]) * scale[k]
                retried[i] = False
            elif lowered and constrained and not retried[i]:
                met[i] = True
                # back onto the floor along the ratio's gradient at the trial, in
                # the coordinates off the box's faces
                off = (at[k] > lower[i]) & (at[k] < upper[i])
                lift = np.where(off, (ratios[k, 1:] - ratios[k, 0]) * scale[k], 0.0)
                reach = float(lift @ lift)
                if reach > 0.0 and math.isfinite(reach):
                    corrected[i] = np.clip(at[k] + lift * ((target - ratios[k, 0]) / reach) * w[k],
                                           lower[i], upper[i])
                    retried[i] = True
                    continue
                lam[i] *= grow[i]
                grow[i] *= 2.0
            else:
                lam[i] *= grow[i]
                grow[i] *= 2.0
                retried[i] = False
        active = active[going]
        if not active.size:
            break
        g, h, at = grad[active], gauss[active], x[active]
        lo, hi, w = lower[active], upper[active], width[active]
        # a coordinate on a face, within rounding of lower + width, stays there
        # while the gradient points out of the box; one whose step would leave
        # the box goes to its face, and the others' step is solved again
        edge = 1e-12 * w
        diag = h.diagonal(axis1=1, axis2=2)
        held = (((at <= lo + edge) & (g > 0.0)) | ((at >= hi - edge) & (g < 0.0))
                | ~(diag > 0.0))
        system = h + lam[active, None, None] * (np.eye(3) * diag[:, None, :])
        step = np.zeros_like(at)
        for _face in range(3):
            free = ~held
            pinned = np.where(free[:, :, None] & free[:, None, :], system, np.eye(3))
            moved = np.where(held, step, 0.0)
            rhs = np.where(free, -g - (system @ moved[:, :, None])[:, :, 0], 0.0)
            step = np.where(free, np.linalg.solve(pinned, rhs[:, :, None])[:, :, 0], step)
            below, above = free & (at + step * w < lo), free & (at + step * w > hi)
            if not (below | above).any():
                break
            step = np.where(below, (lo - at) / w, np.where(above, (hi - at) / w, step))
            held |= below | above
        if constrained:
            # once a trial has fallen below the floor, a step whose linearised
            # ratio falls short of it is solved again with the floor among its
            # constraints, under the Lagrangian's curvature: the cost's plus the
            # multiplier times the ratio's bend. The step is then lifted, off
            # the faces, by what the bend takes from the ratio along it
            gap, a = target - ratio[active], slope[active]
            short = np.flatnonzero(met[active] & ~retried[active] & ((a * step).sum(axis=1) < gap))
            if short.size:
                k, i = short, active[short]
                bent = system[k] + (2.0 * mult[i] * bend[i])[:, None, None] * np.eye(3)
                lower_k, upper_k = (lo - at)[k] / w[k], (hi - at)[k] / w[k]
                found, mult[i] = _floor_step(bent, g[k], lower_k, upper_k, ~(diag[k] > 0.0),
                                             a[k], gap[k])
                lift = np.where((found > lower_k) & (found < upper_k), a[k], 0.0)
                reach = (lift * lift).sum(axis=1)
                loss = bend[i] * (found * found).sum(axis=1)
                found += lift * np.divide(loss, reach, out=np.zeros_like(reach),
                                          where=reach > 0.0)[:, None]
                step[k] = np.where(np.isnan(found), step[k], found)
        trial[active] = np.clip(at + step * w, lo, hi)
        back = retried[active]
        trial[active[back]] = corrected[active[back]]
        step = (trial[active] - at) / w
        if constrained:
            expected[active] = ratio[active] + (slope[active] * step).sum(axis=1)
        predicted[active] = -(step * g).sum(axis=1) - 0.5 * np.einsum("ki,kij,kj->k", step, h, step)
        # so does a step whose predicted gain is that small, unless it is a correction
        ended = (predicted[active] <= _POLISH_TOL * cost[active]) & ~back
        converged[active[ended]] = True
        active = active[~ended]
        if not active.size:
            break
    return x, cost, evaluations, converged


# Each coordinate of a step free, on the lower face of the box or on its upper
# one: the 27 patterns, as masks of the free and of the lower-face coordinates.
_FREE, _LOW = (np.indices((3, 3, 3)).reshape(3, -1).T == face for face in (0, 1))


def _floor_step(system, g, lower, upper, fixed, a, gap):
    """The polish's step, in box units, under the box and the damping floor's linearisation.

    For each row k, the step s of least g.s + s'Ss/2 (system S, symmetric
    and positive definite) with lower <= s <= upper, s_j = 0 where
    fixed[k, j], and a.s >= gap: the ratio's gradient a must lift it by at
    least the gap to the floor. The quadratic is strictly convex, so its
    minimum under linear constraints is the least feasible one of its minima
    over their active sets: each coordinate free or on one of its faces, and
    the floor's tangent plane on or off; on it, one multiplier mu puts the
    step onto the plane. Returns the steps, nan in a row that no candidate
    satisfies, and each row's multiplier, 0 off the plane.
    """
    free = _FREE & ~fixed[:, None, :]  # (K, 27, 3)
    held = np.where(free | fixed[:, None, :], 0.0,
                    np.where(_LOW, lower[:, None, :], upper[:, None, :]))
    pinned = np.where(free[..., :, None] & free[..., None, :], system[:, None], np.eye(3))
    rhs = np.where(free, -g[:, None, :] - held @ system, held)
    normal = np.where(free, a[:, None, :], 0.0)
    z, v = np.moveaxis(np.linalg.solve(pinned, np.stack([rhs, normal], axis=3)), 3, 0)
    reach = (normal * v).sum(axis=2)
    lifted = (a[:, None, :] * z).sum(axis=2)
    mu = np.divide(gap[:, None] - lifted, reach, out=np.zeros_like(reach), where=reach > 0.0)
    steps = np.concatenate([z, z + mu[..., None] * v], axis=1)  # off the plane, then on it
    inside = ((steps >= lower[:, None, :]) & (steps <= upper[:, None, :])).all(axis=2)
    meets = np.concatenate([lifted >= gap[:, None], reach > 0.0], axis=1)
    value = np.where(inside & meets,
                     ((g[:, None, :] + 0.5 * (steps @ system)) * steps).sum(axis=2), np.inf)
    best, rows = value.argmin(axis=1), np.arange(len(g))
    found = np.where(np.isfinite(value[rows, best])[:, None], steps[rows, best], np.nan)
    return found, np.where(best < len(_FREE), 0.0, mu[rows, best % len(_FREE)])


def _fit_windows(series: PriceSeries, windows, cfg: SearchConfig, seeds) -> list:
    """fit() of each window under cfg with seed seeds[i], as one lockstep search.

    The search hands each window's lone leader off once its step is below
    _HANDOFF, and _polish then finishes the fit from the window's best point.
    A window whose polish does not finish it is searched again without the
    handoff, in one more lockstep batch under fresh generators of its seed,
    which repeats the search made without the rule bit for bit, and that
    search's best is polished in turn. A FitResult counts the evaluations of
    every search and polish of its window.

    Returns a FitResult or a FitFailedError per window, each equal to what
    fit() gives for that window alone; a window the search cannot take
    raises ValidationError for the whole call.
    """
    arrays, lowers, uppers = [], [], []
    for window in windows:
        arrays.append(_window_arrays(series, window))
        tc_lo, tc_hi = cfg.tc_bounds(window)
        if tc_hi <= tc_lo + TC_GUARD:
            raise ValidationError("tc search interval collapsed; window too short for guard")
        lowers.append([tc_lo + TC_GUARD, cfg.m_min, cfg.omega_min])
        uppers.append([tc_hi, cfg.m_max, cfg.omega_max])

    def search(ids, handoff):
        return minimize_problems(
            _objective([arrays[i] for i in ids], cfg),
            [lowers[i] for i in ids],
            [uppers[i] for i in ids],
            popsize=cfg.population,
            max_evals=cfg.max_evaluations,
            restarts=cfg.restarts,
            rngs=[np.random.default_rng(seeds[i]) for i in ids],
            far_behind=_FAR_BEHIND,
            handoff=handoff,
        )

    def tc_end(i, tc):
        """Whether tc lies on an end of window i's tc interval, within rounding."""
        lo, hi = lowers[i][0], uppers[i][0]
        return min(tc - lo, hi - tc) <= 1e-12 * (hi - lo)

    polishes = {}  # window: the point its last polish started from, and that polish's end

    def polished(ids, found):
        """Window i's point, cost and evaluations after the search `found` and the polish,
        and whether it needs another search: a fit whose polish did not finish it.

        A search that ends on the point an earlier polish of its window started
        from, bit for bit, reuses that polish: it would take the same steps."""
        out = {i: (f.x, f.cost, f.evaluations, False) for i, f in zip(ids, found)}
        fitted = [(i, f) for i, f in zip(ids, found) if math.isfinite(f.cost)]
        fresh = {i: f for i, f in fitted
                 if i not in polishes or not np.array_equal(polishes[i][0], f.x)}
        if fresh:
            ends = _polish(*([part[i] for i in fresh] for part in (arrays, lowers, uppers)),
                           [f.x for f in fresh.values()], cfg.damping_floor)
            for (i, f), *end in zip(fresh.items(), *ends):
                polishes[i] = (f.x, end)
        for i, f in fitted:
            x, cost, spent, converged = polishes[i][1]
            spent = int(spent) if i in fresh else 0
            taken = cost < f.cost
            finished = taken and converged and (tc_end(i, f.x[0]) or not tc_end(i, x[0]))
            out[i] = ((x, cost) if taken else (f.x, f.cost)) + (f.evaluations + spent, not finished)
        return out

    every = range(len(windows))
    done = polished(every, search(every, _HANDOFF))
    # A polish that found nothing lower, did not converge, or ran tc onto an
    # end of its interval that the search's best was not on did not finish its
    # fit: its leader sat on a ridge too flat for it, as the m = 1 fits with a
    # vanishing oscillation are, where tc is all but free and the search can
    # still travel far. Such a window is searched again without the handoff,
    # that search's polish taken wherever it lowers the cost. A polish that
    # converged on the damping floor has finished its fit like any other.
    again = [i for i in every if done[i][3]]
    if again:
        for i, (x, cost, evaluations, _) in polished(again, search(again, None)).items():
            done[i] = (x, cost, evaluations + done[i][2], False)
    results = []
    for i, (window, (t, y)) in enumerate(zip(windows, arrays)):
        x, cost, evaluations, _ = done[i]
        if math.isfinite(cost):
            tc, m, omega = x
            results.append(_result_at(t, y, tc, m, omega, evaluations))
        else:
            results.append(FitFailedError(
                f"no admissible fit in window [{window.t1}, {window.t2}] "
                f"({evaluations} evaluations)", evaluations
            ))
    return results
