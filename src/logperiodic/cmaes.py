"""Covariance matrix adaptation evolution strategy on a box.

A compact (mu/mu_w, lambda)-CMA-ES with the standard strategy-parameter
defaults, specialized for low-dimensional bound-constrained problems.
The search runs in box-normalized coordinates [0,1]^n; candidates are
clipped onto the box before evaluation and the pre-clip violation adds
a quadratic penalty to the selection fitness, so the reported optimum
is always feasible and evaluated at its true objective value.

The restarts of a search, and the searches of several problems of one
dimension and budget, run in lockstep: each generation is one update over
every running run and one call of the objective with the populations of
all running runs as one (k, n) array, each problem's rows contiguous and
in problem order, together with the row range of each problem. A run
ends when its evaluation budget is spent, when its step size diverges,
on one of the two termination criteria of Hansen, "The CMA Evolution
Strategy: A Tutorial" (arXiv:1604.00772), on one of the three rules
between runs: when it cannot catch up with a sibling run, when it has
reached a better sibling's basin, or, where the caller asks for it, when
it is still far behind a sibling, or, where the caller asks for it too,
when it is handed off:

- TolFun: the best values of the last 10 + ceil(30 n / lambda) generations
  and all values of the current generation span less than _TOL_FUN. A span
  that holds a rejected value is inf or nan and never trips it.
- TolX: sigma * |p_c| and sigma * sqrt(diag(C)) are below _TOL_X times the
  initial step size in every coordinate.
- Catch-up: another run of the same problem, running or stopped, holds a
  strictly lower best value (the leader's), and over the last
  10 + ceil(30 n / lambda) generations (TolFun's history length) the
  run's best value either did not move, or fell by at most _CATCH_UP
  times its gap to the leader while its largest step sigma * sqrt(max
  eigenvalue of C) is below _CATCH_UP_STEP in box units. The run that
  leads its problem never stops this way, so the returned best is never
  cut short, and a search with one restart never stops this way at all.
- Same basin: the run trails its problem's leader (the first of the
  problem's runs, running or stopped, with the least best value), and its
  best point lies within _SAME_BASIN box units of the leader's best point
  in every coordinate: it is taken to be headed for the leader's minimum.
  A run that ties the leader does not trail it, and the leader and
  a search with one restart never stop this way.
- Far behind (off unless the caller passes far_behind): from TolFun's
  history length on, the run trails its problem's leader and its best
  value is more than far_behind times the leader's. A ratio of raw values
  is meaningful only for an objective that is never negative, and unlike
  the other rules it changes its decisions when f becomes a f + b.
- Handoff (off unless the caller passes handoff): the run is a lone
  leader, the last running run of its problem that trails no other run,
  its best value is finite, and its step, TolX's sigma * spread in box
  units, is below handoff. The caller finishes the minimization from the
  returned best point: a local method converges faster than the last
  generations of the search, which only shrink the step. This is the one
  rule that stops a leader, and with restarts = 1 the one run is a lone
  leader from the start.

The three rules between runs and the handoff are the only criteria that
read other runs, and only those of the same problem. The three stop only
a run that trails its leader. A stopped run's best never changes and a
running run's only falls, so a run that is the last one running of its
problem and does not trail never trails again: once every problem with
runs going is down to such a run, each a lone leader, the search skips
the three rules for good, which moves no bit. A last running run that
trails, behind a leader stopped by TolFun, say, is still stopped by them,
and never by the handoff.

Everything is driven by caller-supplied numpy Generators, one per problem:
identical generators give bit-identical runs, alone or in any batch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, integer

__all__ = ["CmaResult", "minimize_box", "minimize_problems"]

# Penalty weight on squared normalized box violation; only has to dominate
# the objective's local variation near the boundary, not its global scale.
_PENALTY = 1e4

# Hansen's default TolFun (absolute, in objective units) and TolX (relative
# to the initial step size, in normalized coordinates).
_TOL_FUN = 1e-12
_TOL_X = 1e-12

# Catch-up rule: the share of its gap to the leader a trailing run must close
# per TolFun history, and the largest step (box units; runs start at 0.25)
# below which it must.
_CATCH_UP = 0.1
_CATCH_UP_STEP = 1e-2

# Generations whose normals a run draws at once. A run's stream yields the
# same values in any block size; only how far past the run's end it is read
# depends on it.
_DRAW_BLOCK = 16

# Same-basin rule: a trailing run whose best point lies this close (box units,
# in every coordinate) to its leader's best point stops.
_SAME_BASIN = 1e-3


@dataclass(frozen=True)
class CmaResult:
    x: np.ndarray
    cost: float
    evaluations: int


def minimize_problems(func, lowers, uppers, popsize, max_evals, restarts, rngs,
                      far_behind=None, handoff=None) -> list[CmaResult]:
    """Minimize problem p of func over its box [lowers[p], uppers[p]] with restarted CMA-ES.

    The problems share the dimension, population, budget and restart count;
    the result list holds one CmaResult per problem. Every run of every
    problem advances in lockstep: each generation is one CMA-ES update over
    all runs still going and one call func(points, parts). `points` is a
    (k, n) array of the populations of exactly those runs, each problem's
    rows contiguous and in problem order, and `parts` lists (p, lo, hi) for
    each problem p with runs going: rows points[lo:hi] are p's; it is the
    same list from one generation to the next until a run stops. func
    returns the k objective values; +inf or nan rejects a point, and the
    search reads nan as +inf.
    Run 0 of problem p starts at its box center and draws its samples from
    rngs[p]; run r > 0 starts at a uniform random point and draws
    everything from the r-th child of rngs[p].spawn(restarts - 1), so a
    run's samples depend neither on `restarts` nor on the other problems.
    A run draws its normals _DRAW_BLOCK generations at a time, so the
    generators are left advanced past the last generation a run uses: a
    caller that wants to reproduce a search passes fresh generators, never
    ones a search has read.
    Every run starts with step size 1/4 of each box width, gets at most
    max_evals objective evaluations and stops early on TolFun, TolX, a
    diverging step size, when it cannot catch up with a strictly better
    run of its own problem, when its best point lies within _SAME_BASIN
    of the best point of such a run, the leader of its problem, given
    far_behind, when from TolFun's history length on its best value is
    more than far_behind times its leader's, or, given handoff, when it is
    the lone leader of its problem and its step is below handoff box units;
    a stopped run leaves the batch. Under these rules the generation at
    which a trailing run stops depends on the other runs of its problem,
    so adding restarts can end a run earlier; without handoff the leading
    run of each problem always finishes, and with restarts = 1 none of the
    rules between runs fires.
    far_behind reads a ratio of objective values, so it is for an
    objective that is never negative, a sum of squares say; None, the
    default, leaves the rule off, and every decision of the search then
    stays the same when the objective becomes a f + b with a > 0. handoff
    is for a caller that polishes the result; None, the default, leaves
    that rule off.
    popsize, max_evals and restarts are integers of at least 2, 1 and 1;
    there is at least one problem, one generator per problem and bounds of
    one shape (problems, dimension), finite with lower < upper; far_behind
    is None or a finite number > 1, and handoff None or a finite number
    > 0. ValidationError otherwise.
    """
    for name, value, least in (("popsize", popsize, 2), ("max_evals", max_evals, 1),
                               ("restarts", restarts, 1)):
        integer(name, value, least)
    if len(lowers) == 0:
        raise ValidationError("minimize_problems needs at least one problem")
    shape = "lowers and uppers must both have shape (problems, dimension)"
    try:
        lowers, uppers = np.asarray(lowers, dtype=float), np.asarray(uppers, dtype=float)
    except ValueError as exc:  # ragged, or not numbers
        raise ValidationError(f"{shape}: {exc}") from None
    if lowers.ndim != 2 or lowers.shape[1] == 0 or uppers.shape != lowers.shape:
        raise ValidationError(f"{shape}, got {lowers.shape} and {uppers.shape}")
    if len(rngs) != len(lowers):
        raise ValidationError(f"one generator per problem: {len(lowers)} problems, "
                              f"got {len(rngs)} generators")
    for p, (lo, hi) in enumerate(zip(lowers, uppers)):
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValidationError(f"problem {p}: bounds must be finite with lower < upper, "
                                  f"got {lo.tolist()} and {hi.tolist()}")
    if far_behind is not None and not (isinstance(far_behind, numbers.Real)
                                       and math.isfinite(far_behind) and far_behind > 1):
        raise ValidationError(f"far_behind must be None or a finite number > 1, got {far_behind!r}")
    if handoff is not None and not (isinstance(handoff, numbers.Real)
                                    and math.isfinite(handoff) and handoff > 0):
        raise ValidationError(f"handoff must be None or a finite number > 0, got {handoff!r}")
    # Runs along a leading axis, grouped by problem: run i belongs to problem i // restarts.
    lower = np.repeat(lowers, restarts, axis=0)
    width = np.repeat(uppers - lowers, restarts, axis=0)
    runs, n = lower.shape
    rngs = [g for rng in rngs for g in (rng, *rng.spawn(restarts - 1))]

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

    # Per-run state along the run axis, kept for the runs still going only
    # (`ids` names them); best_f and best_x, below, keep every run's.
    mean = np.array([np.full(n, 0.5) if i % restarts == 0 else r.uniform(0.0, 1.0, n)
                     for i, r in enumerate(rngs)])
    sigma = np.full(runs, sigma0)
    cov = np.tile(np.eye(n), (runs, 1, 1))
    p_sigma = np.zeros((runs, n))
    p_c = np.zeros((runs, n))
    eigvals = np.ones((runs, n))
    eigvecs = cov.copy()
    # best ranked value of each of the last 10 + ceil(30 n / lambda) generations
    history = 10 + math.ceil(30 * n / lam)
    recent_best = np.empty((runs, history))
    # best_f after each of the last `history` generations: generation g's sits in slot g % history
    past_best = np.empty((runs, history))
    firsts = np.arange(0, runs, restarts)  # each problem's first run
    ids = np.arange(runs)

    def layout(ids, per_run):
        """The problem of each of the runs `ids`, func's parts at per_run rows a run, and their index."""
        owner = ids // restarts
        starts = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()
        parts = [(int(owner[lo]), lo * per_run, hi * per_run)
                 for lo, hi in zip(starts, [*starts[1:], ids.size])]
        return owner, parts, np.arange(ids.size)

    # the start points, one row per run, all inside the box
    best_x = mean.copy()
    # nan reads as +inf from here on: a nan best would never be beaten
    best_f = np.fmin(func(lower + best_x * width, layout(ids, 1)[1]), np.inf)
    past_best[:, 0] = best_f
    run_lower, run_width = lower[:, None, :], width[:, None, :]  # of the running runs
    owner, parts, rows = layout(ids, lam)
    used = np.ones(runs, dtype=int)
    evals = 1  # per running run: they all started together
    gen = 0
    settled = False  # whether the rules between runs can no longer fire

    # each run's normals for the _DRAW_BLOCK generations from a multiple of
    # _DRAW_BLOCK on, in its stream's order: one call per run per block
    draws = np.empty((runs, _DRAW_BLOCK, lam, n))

    while ids.size and evals + lam <= max_evals:
        if gen % _DRAW_BLOCK == 0:
            for i in ids.tolist():
                rngs[i].standard_normal(out=draws[i])
        sqrt_d = np.sqrt(eigvals)
        z = draws[ids, gen % _DRAW_BLOCK]
        y = z @ (eigvecs * sqrt_d[:, None, :]).transpose(0, 2, 1)  # y_k ~ N(0, C)
        x = mean[:, None, :] + sigma[:, None, None] * y
        x_clip = np.minimum(np.maximum(x, 0.0), 1.0)
        violation = ((x - x_clip) ** 2).sum(axis=2)

        f_raw = np.fmin(func((run_lower + x_clip * run_width).reshape(-1, n), parts),
                        np.inf).reshape(ids.size, lam)
        evals += lam
        gen += 1
        now = best_f[ids]
        # the first row holding each run's least value: it improves the run
        # when it lies below best_f, and no row does otherwise
        k = f_raw.argmin(axis=1)
        fitness = f_raw + _PENALTY * violation
        least = f_raw[rows, k]
        better = least < now
        if better.any():
            now = np.where(better, least, now)
            best_f[ids[better]] = least[better]
            best_x[ids[better]] = x_clip[rows, k][better]

        order = fitness.argsort(axis=1, kind="stable")
        y_sel = y[rows[:, None], order[:, :mu]]
        y_w = weights @ y_sel
        mean = mean + sigma[:, None] * y_w

        # step-size control
        c_invsqrt_y = (eigvecs / sqrt_d[:, None, :]) @ (eigvecs.transpose(0, 2, 1) @ y_w[:, :, None])
        c_invsqrt_y = c_invsqrt_y[:, :, 0]
        p_sigma = (1.0 - csigma) * p_sigma + math.sqrt(csigma * (2.0 - csigma) * mueff) * c_invsqrt_y
        ps_norm = np.sqrt((p_sigma[:, None, :] @ p_sigma[:, :, None])[:, 0, 0])
        # libm's exp, as a single run has always used: numpy's SIMD exp can
        # differ in the last bit, and that would move every fit
        steps = ((csigma / dsigma) * (ps_norm / chi_n - 1.0)).tolist()
        sigma = sigma * np.array(list(map(math.exp, steps)))

        # covariance adaptation (rank-1 + rank-mu)
        gens_scale = math.sqrt(1.0 - (1.0 - csigma) ** (2.0 * evals / lam))
        hsig = np.where(ps_norm / gens_scale < (1.4 + 2.0 / (n + 1.0)) * chi_n, 1.0, 0.0)
        p_c = (1.0 - cc) * p_c + (hsig * math.sqrt(cc * (2.0 - cc) * mueff))[:, None] * y_w
        rank_mu = (y_sel * weights[:, None]).transpose(0, 2, 1) @ y_sel
        cov = (
            (1.0 - c1 - cmu) * cov
            + c1 * (p_c[:, :, None] * p_c[:, None, :]
                    + ((1.0 - hsig) * (cc * (2.0 - cc)))[:, None, None] * cov)
            + cmu * rank_mu
        )
        cov = (cov + cov.transpose(0, 2, 1)) / 2.0

        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-30)

        # TolX in every coordinate is TolX of the largest one: sqrt and the
        # rounded product with sigma > 0 are monotone, so no bit moves. A
        # diverging step size, nan and inf included, fails sigma <= 1e6.
        spread = np.maximum(np.abs(p_c).max(axis=1),
                            np.sqrt(np.diagonal(cov, axis1=1, axis2=2).max(axis=1)))
        step = sigma * spread
        stop = (step < tol_x) | ~(sigma <= 1e6)
        recent_best[:, (gen - 1) % history] = fitness[rows, order[:, 0]]
        # inf - inf is nan where a run holds a rejected value or has no finite
        # best, and nan fails every comparison: it neither converges nor stalls
        with np.errstate(invalid="ignore"):
            if gen >= history:
                # TolFun looks at the ranked values, box penalty included (the ring
                # holds this generation's least): a range that holds a rejected
                # value is inf or nan
                top = np.maximum(fitness.max(axis=1), recent_best.max(axis=1))
                stop |= top - recent_best.min(axis=1) < _TOL_FUN
            if not settled:
                # the rules between runs: each running run's leader is the run of its
                # problem, running or stopped, with the least best value (the first such)
                lead = (firsts + best_f.reshape(-1, restarts).argmin(axis=1))[owner]
                leader = best_f[lead]
                trailing = leader < now
                # catch-up: behind the leader, the best of a TolFun history ago did
                # not move, or moved too little with too small a step to close the gap
                slot = gen % history
                if gen >= history:
                    then = past_best[:, slot]
                    creeping = ((then - now <= _CATCH_UP * (now - leader))
                                & (sigma * np.sqrt(eigvals[:, -1]) < _CATCH_UP_STEP))
                    stop |= trailing & ((then == now) | creeping)
                    if far_behind is not None:
                        # far behind: still more than far_behind times the leader's value
                        stop |= trailing & (now > far_behind * leader)
                past_best[:, slot] = now
                # same basin: behind the leader, with its best point next to the leader's
                stop |= trailing & (np.abs(best_x[ids] - best_x[lead]).max(axis=1) < _SAME_BASIN)
        if handoff is not None:
            # handoff: a lone leader, the last running run of its problem that trails
            # no other run, with an admissible best and a step below handoff
            lone = settled or ((np.bincount(owner)[owner] == 1) & ~trailing)
            stop |= lone & (now < np.inf) & (step < handoff)
        if stop.any():
            used[ids[stop]] = evals
            keep = ~stop
            ids = ids[keep]
            owner, parts, rows = layout(ids, lam)
            (mean, sigma, cov, p_sigma, p_c, eigvals, eigvecs, recent_best, past_best,
             run_lower, run_width) = (
                a[keep] for a in (mean, sigma, cov, p_sigma, p_c, eigvals, eigvecs, recent_best,
                                  past_best, run_lower, run_width))
        # every problem down to one running run that does not trail: it never
        # will (see the module docstring)
        settled = settled or (len(parts) == ids.size and not (trailing & ~stop).any())

    used[ids] = evals
    results = []
    for first in firsts.tolist():
        own = slice(first, first + restarts)
        best = first + int(np.argmin(best_f[own]))
        results.append(CmaResult(x=lower[best] + best_x[best] * width[best],
                                 cost=float(best_f[best]), evaluations=int(used[own].sum())))
    return results


def minimize_box(func, lower, upper, popsize, max_evals, restarts, rng) -> CmaResult:
    """minimize_problems for one func that takes one point and returns a float."""
    return minimize_problems(lambda xs, parts: np.array([func(x) for x in xs], dtype=float),
                             [lower], [upper], popsize, max_evals, restarts, [rng])[0]
