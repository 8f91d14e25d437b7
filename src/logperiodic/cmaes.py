"""Covariance matrix adaptation evolution strategy on a box.

A compact (mu/mu_w, lambda)-CMA-ES with the standard strategy-parameter
defaults, specialized for low-dimensional bound-constrained problems.
The search runs in box-normalized coordinates [0,1]^n; candidates are
clipped onto the box before evaluation and the pre-clip violation adds
a quadratic penalty to the selection fitness, so the reported optimum
is always feasible and evaluated at its true objective value.

The objective is called once per generation with the whole population
as a (lambda, n) array. A run ends when its evaluation budget is spent,
when its step size diverges, or on one of the two termination criteria of
Hansen, "The CMA Evolution Strategy: A Tutorial" (arXiv:1604.00772):

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
from collections import deque
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


def _run(func, lower, upper, x0_norm, sigma0, popsize, max_evals, rng):
    """One CMA-ES run in normalized coordinates; returns (x_best, f_best, evals).

    func maps a (k, n) array of points to k objective values.
    """
    n = lower.size
    width = upper - lower

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

    mean = x0_norm.copy()
    sigma = sigma0
    cov = np.eye(n)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)
    eigvals = np.ones(n)
    eigvecs = np.eye(n)

    recent_best = deque(maxlen=10 + math.ceil(30 * n / lam))
    tol_x = _TOL_X * sigma0

    best_x = np.clip(mean, 0.0, 1.0)
    best_f = float(func((lower + best_x * width)[None, :])[0])
    evals = 1

    while evals + lam <= max_evals:
        sqrt_d = np.sqrt(eigvals)
        z = rng.standard_normal((lam, n))
        y = z @ (eigvecs * sqrt_d).T          # y_k ~ N(0, C)
        x = mean + sigma * y
        x_clip = np.clip(x, 0.0, 1.0)
        violation = np.sum((x - x_clip) ** 2, axis=1)

        f_raw = func(lower + x_clip * width)
        evals += lam
        # the first row holding the generation's least value below best_f
        k = int(np.argmin(np.where(f_raw < best_f, f_raw, np.inf)))
        if f_raw[k] < best_f:
            best_f = float(f_raw[k])
            best_x = x_clip[k].copy()
        finite = np.isfinite(f_raw)
        fitness = np.where(finite, f_raw + _PENALTY * violation, f_raw)

        order = np.argsort(fitness, kind="stable")
        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        # step-size control
        c_invsqrt_y = (eigvecs / sqrt_d) @ (eigvecs.T @ y_w)
        p_sigma = (1.0 - csigma) * p_sigma + math.sqrt(csigma * (2.0 - csigma) * mueff) * c_invsqrt_y
        ps_norm = np.linalg.norm(p_sigma)
        sigma *= math.exp((csigma / dsigma) * (ps_norm / chi_n - 1.0))

        # covariance adaptation (rank-1 + rank-mu)
        gens_scale = math.sqrt(1.0 - (1.0 - csigma) ** (2.0 * evals / lam))
        hsig = 1.0 if ps_norm / gens_scale < (1.4 + 2.0 / (n + 1.0)) * chi_n else 0.0
        p_c = (1.0 - cc) * p_c + hsig * math.sqrt(cc * (2.0 - cc) * mueff) * y_w
        rank_mu = (y_sel * weights[:, None]).T @ y_sel
        cov = (
            (1.0 - c1 - cmu) * cov
            + c1 * (np.outer(p_c, p_c) + (1.0 - hsig) * cc * (2.0 - cc) * cov)
            + cmu * rank_mu
        )
        cov = (cov + cov.T) / 2.0

        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-30)

        # TolFun looks at the ranked values, box penalty included
        recent_best.append(fitness[order[0]])
        if len(recent_best) == recent_best.maxlen and finite.all():
            values = np.concatenate((fitness, recent_best))
            if values.max() - values.min() < _TOL_FUN:
                break
        if (sigma * np.abs(p_c) < tol_x).all() and (sigma * np.sqrt(np.diag(cov)) < tol_x).all():
            break
        if not math.isfinite(sigma) or sigma > 1e6:
            break

    return best_x, best_f, evals


def minimize_population(func, lower, upper, popsize, max_evals, restarts, rng) -> CmaResult:
    """Minimize func over the box [lower, upper] with restarted CMA-ES.

    func takes a (k, n) array of points and returns their k objective
    values; +inf rejects a point outright. The first run starts at the box
    center with step size 1/4 of each box width; subsequent runs restart
    from uniform random points. Each run gets at most max_evals objective
    evaluations and stops early on TolFun or TolX.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    best_x = None
    best_f = math.inf
    total_evals = 0
    for run in range(max(1, restarts)):
        x0 = np.full(n, 0.5) if run == 0 else rng.uniform(0.0, 1.0, n)
        x_norm, f, used = _run(func, lower, upper, x0, 0.25, popsize, max_evals, rng)
        total_evals += used
        if best_x is None or f < best_f:
            best_f = f
            best_x = x_norm
    x = lower + best_x * (upper - lower)
    return CmaResult(x=x, cost=best_f, evaluations=total_evals)


def minimize_box(func, lower, upper, popsize, max_evals, restarts, rng) -> CmaResult:
    """minimize_population for a func that takes one point and returns a float."""
    return minimize_population(lambda xs: np.array([func(x) for x in xs], dtype=float),
                               lower, upper, popsize, max_evals, restarts, rng)
