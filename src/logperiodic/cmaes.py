"""Covariance matrix adaptation evolution strategy on a box.

A compact (mu/mu_w, lambda)-CMA-ES with the standard strategy-parameter
defaults, specialized for low-dimensional bound-constrained problems.
The search runs in box-normalized coordinates [0,1]^n; candidates are
clipped onto the box before evaluation and the pre-clip violation adds
a quadratic penalty to the selection fitness, so the reported optimum
is always feasible and evaluated at its true objective value.

The restarts of a search run in lockstep, and the objective is called
once per generation with the populations of all running restarts as one
(k, n) array. A run ends when its evaluation budget is spent, when its
step size diverges, or on one of the two termination criteria of Hansen,
"The CMA Evolution Strategy: A Tutorial" (arXiv:1604.00772):

- TolFun: the best values of the last 10 + ceil(30 n / lambda) generations
  and all values of the current generation span less than _TOL_FUN. Only a
  generation whose values are all finite can trip it.
- TolX: sigma * |p_c| and sigma * sqrt(diag(C)) are below _TOL_X times the
  initial step size in every coordinate.

Everything is driven by a caller-supplied numpy Generator: identical
generators give bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CmaResult", "minimize_box", "minimize_population"]

# Penalty weight on squared normalized box violation; only has to dominate
# the objective's local variation near the boundary, not its global scale.
_PENALTY = 1e4

# Hansen's default TolFun (absolute, in objective units) and TolX (relative
# to the initial step size, in normalized coordinates).
_TOL_FUN = 1e-12
_TOL_X = 1e-12


@dataclass(frozen=True)
class CmaResult:
    x: np.ndarray
    cost: float
    evaluations: int


def minimize_population(func, lower, upper, popsize, max_evals, restarts, rng) -> CmaResult:
    """Minimize func over the box [lower, upper] with restarted CMA-ES.

    func takes a (k, n) array of points and returns their k objective
    values; +inf rejects a point outright. All `restarts` runs advance in
    lockstep: each generation is one func call holding the populations of
    every run still going. Run 0 starts at the box center and draws its
    samples from rng; run r > 0 starts at a uniform random point and draws
    everything from the r-th child of rng.spawn(restarts - 1), so a run's
    trajectory depends neither on `restarts` nor on when the others stop.
    Every run starts with step size 1/4 of each box width, gets at most
    max_evals objective evaluations and stops early on TolFun, TolX or a
    diverging step size; a stopped run leaves the batch.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    width = upper - lower
    runs = max(1, restarts)
    rngs = [rng, *rng.spawn(runs - 1)]

    lam = popsize
    mu = lam // 2
    raw_weights = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw_weights / raw_weights.sum()
    mueff = 1.0 / np.sum(weights**2)

    csigma = (mueff + 2.0) / (n + mueff + 5.0)
    dsigma = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (n + 1.0)) - 1.0) + csigma
    cc = (4.0 + mueff / n) / (n + 4.0 + 2.0 * mueff / n)
    c1 = 2.0 / ((n + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((n + 2.0) ** 2 + mueff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))
    sigma0 = 0.25
    tol_x = _TOL_X * sigma0

    # Per-run state along a leading run axis; `ids` names the runs still going.
    mean = np.array([np.full(n, 0.5)] + [r.uniform(0.0, 1.0, n) for r in rngs[1:]])
    sigma = np.full(runs, sigma0)
    cov = np.tile(np.eye(n), (runs, 1, 1))
    p_sigma = np.zeros((runs, n))
    p_c = np.zeros((runs, n))
    eigvals = np.ones((runs, n))
    eigvecs = cov.copy()
    # best ranked value of each of the last 10 + ceil(30 n / lambda) generations
    recent_best = np.empty((runs, 10 + math.ceil(30 * n / lam)))
    ids = np.arange(runs)

    best_x = np.clip(mean, 0.0, 1.0)
    best_f = np.array(func(lower + best_x * width), dtype=float)
    used = np.ones(runs, dtype=int)
    evals = 1  # per running run: they all started together
    gen = 0

    while ids.size and evals + lam <= max_evals:
        sqrt_d = np.sqrt(eigvals)
        z = np.stack([rngs[i].standard_normal((lam, n)) for i in ids])
        y = z @ (eigvecs * sqrt_d[:, None, :]).transpose(0, 2, 1)  # y_k ~ N(0, C)
        x = mean[:, None, :] + sigma[:, None, None] * y
        x_clip = np.clip(x, 0.0, 1.0)
        violation = np.sum((x - x_clip) ** 2, axis=2)

        f_raw = func((lower + x_clip * width).reshape(-1, n)).reshape(ids.size, lam)
        evals += lam
        gen += 1
        # the first row holding each run's least value below its best_f
        k = np.argmin(np.where(f_raw < best_f[ids, None], f_raw, np.inf), axis=1)
        rows = np.arange(ids.size)
        better = f_raw[rows, k] < best_f[ids]
        best_f[ids[better]] = f_raw[rows, k][better]
        best_x[ids[better]] = x_clip[rows, k][better]
        finite = np.isfinite(f_raw)
        fitness = np.where(finite, f_raw + _PENALTY * violation, f_raw)

        order = np.argsort(fitness, axis=1, kind="stable")
        y_sel = np.take_along_axis(y, order[:, :mu, None], axis=1)
        y_w = weights @ y_sel
        mean = mean + sigma[:, None] * y_w

        # step-size control
        c_invsqrt_y = (eigvecs / sqrt_d[:, None, :]) @ (eigvecs.transpose(0, 2, 1) @ y_w[:, :, None])
        c_invsqrt_y = c_invsqrt_y[:, :, 0]
        p_sigma = (1.0 - csigma) * p_sigma + math.sqrt(csigma * (2.0 - csigma) * mueff) * c_invsqrt_y
        ps_norm = np.sqrt((p_sigma[:, None, :] @ p_sigma[:, :, None])[:, 0, 0])
        # libm's exp, as a single run has always used: numpy's SIMD exp can
        # differ in the last bit, and that would move every fit
        sigma = sigma * np.array([math.exp(v) for v in (csigma / dsigma) * (ps_norm / chi_n - 1.0)])

        # covariance adaptation (rank-1 + rank-mu)
        gens_scale = math.sqrt(1.0 - (1.0 - csigma) ** (2.0 * evals / lam))
        hsig = np.where(ps_norm / gens_scale < (1.4 + 2.0 / (n + 1.0)) * chi_n, 1.0, 0.0)
        p_c = (1.0 - cc) * p_c + (hsig * math.sqrt(cc * (2.0 - cc) * mueff))[:, None] * y_w
        rank_mu = (y_sel * weights[:, None]).transpose(0, 2, 1) @ y_sel
        cov = (
            (1.0 - c1 - cmu) * cov
            + c1 * (p_c[:, :, None] * p_c[:, None, :]
                    + ((1.0 - hsig) * cc * (2.0 - cc))[:, None, None] * cov)
            + cmu * rank_mu
        )
        cov = (cov + cov.transpose(0, 2, 1)) / 2.0

        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-30)

        # TolFun looks at the ranked values, box penalty included, and only
        # at runs whose generation is all finite: inf - inf would be nan
        recent_best[ids, (gen - 1) % recent_best.shape[1]] = fitness[rows, order[:, 0]]
        stop = np.zeros(ids.size, dtype=bool)
        if gen >= recent_best.shape[1]:
            check = finite.all(axis=1)
            values = np.concatenate((fitness[check], recent_best[ids[check]]), axis=1)
            stop[check] = values.max(axis=1) - values.min(axis=1) < _TOL_FUN
        stop |= ((sigma[:, None] * np.abs(p_c) < tol_x).all(axis=1)
                 & (sigma[:, None] * np.sqrt(np.diagonal(cov, axis1=1, axis2=2)) < tol_x).all(axis=1))
        stop |= ~np.isfinite(sigma) | (sigma > 1e6)
        if stop.any():
            used[ids[stop]] = evals
            keep = ~stop
            ids = ids[keep]
            mean, sigma, cov, p_sigma, p_c, eigvals, eigvecs = (
                a[keep] for a in (mean, sigma, cov, p_sigma, p_c, eigvals, eigvecs))

    used[ids] = evals
    best = int(np.argmin(best_f))
    return CmaResult(x=lower + best_x[best] * width, cost=float(best_f[best]),
                     evaluations=int(used.sum()))


def minimize_box(func, lower, upper, popsize, max_evals, restarts, rng) -> CmaResult:
    """minimize_population for a func that takes one point and returns a float."""
    return minimize_population(lambda xs: np.array([func(x) for x in xs], dtype=float),
                               lower, upper, popsize, max_evals, restarts, rng)
