"""Reference implementations used to cross-check the library.

All but one deliberately avoid the library's code paths: sums are
accumulated with explicit Python loops and the math module, so agreement
with the vectorized implementations is evidence, not tautology. The
exception is grid_oracle, which reuses the library's profiled objective so
that it applies exactly fit()'s admissibility rules; what it checks is the
search, not the cost.
"""

import math

import numpy as np

from logperiodic import FitFailedError, SearchConfig, ValidationError
from logperiodic.calibrate import _COND_CAP, TC_GUARD, _objective, _result_at, _window_arrays


def dense_normal_solve(t, y, tc, m, omega):
    """Direct assembly and solve of the 4x4 normal system for (A, B, C1, C2)."""
    t = list(map(float, t))
    y = list(map(float, y))
    n = len(t)
    f = [(tc - ti) ** m for ti in t]
    g = [fi * math.cos(omega * math.log(tc - ti)) for fi, ti in zip(f, t)]
    h = [fi * math.sin(omega * math.log(tc - ti)) for fi, ti in zip(f, t)]

    def dot(a, b):
        return sum(ai * bi for ai, bi in zip(a, b))

    lhs = np.array(
        [
            [n, sum(f), sum(g), sum(h)],
            [sum(f), dot(f, f), dot(f, g), dot(f, h)],
            [sum(g), dot(f, g), dot(g, g), dot(h, g)],
            [sum(h), dot(f, h), dot(g, h), dot(h, h)],
        ]
    )
    rhs = np.array([sum(y), dot(f, y), dot(g, y), dot(h, y)])
    return np.linalg.solve(lhs, rhs)


def ldl_by_rows(gram, rhs):
    """Row-by-row LDL^T factor, admissibility and solve of each 4x4 matrix of the (K, 4, 4) gram.

    Returns (d, ok, x): the (K, 4) pivots, the (K,) mask of matrices that
    are finite with pivots positive and a ratio max/min of at most
    _COND_CAP, and the (K, 4) solutions of the (K, 4) rhs. Cholesky without
    pivoting in +, -, x and / only, one entry of all K matrices at a time,
    each entry's terms in ascending order: the kernel's factor before it
    went column-wise, which must give the same bits.
    """
    lower = [[None] * 4 for _ in range(4)]
    w = [[None] * 4 for _ in range(4)]  # w[i][j] = lower[i][j] * d[j]
    d = np.empty((4, len(gram)))
    for j in range(4):
        for i in range(j, 4):
            s = gram[:, i, j]
            for k in range(j):
                s = s - lower[i][k] * w[j][k]
            w[i][j] = s
        d[j] = w[j][j]
        for i in range(j + 1, 4):
            lower[i][j] = w[i][j] / d[j]
    smallest = d.min(axis=0)
    ok = np.isfinite(gram).all(axis=(1, 2)) & (smallest > 0.0) & (smallest > d.max(axis=0) / _COND_CAP)
    z = []
    for i in range(4):
        s = rhs[:, i]
        for k in range(i):
            s = s - lower[i][k] * z[k]
        z.append(s)
    x = [None] * 4
    for i in reversed(range(4)):
        s = z[i] / d[i]
        for k in range(i + 1, 4):
            s = s - lower[k][i] * x[k]
        x[i] = s
    return d.T, ok, np.stack(x, axis=1)


def svd_least_squares(t, y, tc, m, omega):
    """(A, B, C1, C2) from an SVD least-squares solve of the design matrix itself.

    It never forms the normal matrix, so its error follows cond(X), the
    square root of the normal matrix's condition number.
    """
    rows = []
    for ti in map(float, t):
        fi = (tc - ti) ** m
        phase = omega * math.log(tc - ti)
        rows.append([1.0, fi, fi * math.cos(phase), fi * math.sin(phase)])
    return np.linalg.lstsq(np.array(rows), np.asarray(y, dtype=float), rcond=None)[0]


def residual_sum_of_squares(t, y, tc, m, omega, a, b, c1, c2):
    """Direct evaluation of the squared-residual objective at given parameters."""
    total = 0.0
    for ti, yi in zip(t, y):
        dt = tc - float(ti)
        fi = dt**m
        model = (
            a
            + b * fi
            + c1 * fi * math.cos(omega * math.log(dt))
            + c2 * fi * math.sin(omega * math.log(dt))
        )
        total += (float(yi) - model) ** 2
    return total


def lomb_power(x, r, freqs):
    """Classic Lomb periodogram (with the tau phase shift), one loop per frequency."""
    x = list(map(float, x))
    mean = sum(r) / len(r)
    r = [float(ri) - mean for ri in r]
    powers = []
    for w in freqs:
        s2 = sum(math.sin(2.0 * w * xi) for xi in x)
        c2 = sum(math.cos(2.0 * w * xi) for xi in x)
        tau = math.atan2(s2, c2) / (2.0 * w)
        cos_t = [math.cos(w * (xi - tau)) for xi in x]
        sin_t = [math.sin(w * (xi - tau)) for xi in x]
        rc = sum(ri * ci for ri, ci in zip(r, cos_t))
        rs = sum(ri * si for ri, si in zip(r, sin_t))
        cc = sum(ci * ci for ci in cos_t)
        ss = sum(si * si for si in sin_t)
        powers.append(0.5 * (rc * rc / cc + rs * rs / ss))
    return np.array(powers)


def grid_oracle(series, window, grid_spec, cfg=SearchConfig()):
    """Exhaustive profiled-cost evaluation on a regular (tc, m, omega) grid.

    Slower than fit() but assumption-free about the search. Applies the
    same admissibility rules as fit() by evaluating the library's
    population objective, one batched call per tc slice of the grid;
    returns the grid minimizer (the first one met in (tc, m, omega) order).
    """
    n_tc, n_m, n_omega = (int(k) for k in grid_spec)
    if n_tc < 1 or n_m < 1 or n_omega < 1:
        raise ValidationError(f"empty grid spec {grid_spec}")
    t, y = _window_arrays(series, window)
    tc_lo, tc_hi = cfg.tc_bounds(window)
    tcs = np.linspace(tc_lo + TC_GUARD, tc_hi, n_tc)
    ms = np.linspace(cfg.m_min, cfg.m_max, n_m)
    omegas = np.linspace(cfg.omega_min, cfg.omega_max, n_omega)
    func = _objective([(t, y)], cfg)
    mm, ww = (a.ravel() for a in np.meshgrid(ms, omegas, indexing="ij"))

    best = (math.inf, None)
    evals = 0
    for tc in tcs:
        points = np.column_stack((np.full(mm.size, tc), mm, ww))
        values = func(points, [(0, 0, len(points))])
        evals += len(points)
        k = int(np.argmin(values))
        if values[k] < best[0]:
            best = (values[k], tuple(points[k]))
    if best[1] is None:
        raise FitFailedError(f"no admissible grid point among {evals}")
    tc, m, omega = best[1]
    return _result_at(t, y, tc, m, omega, evals)
