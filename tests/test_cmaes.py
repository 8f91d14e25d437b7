import math

import numpy as np

from logperiodic.cmaes import minimize_box, minimize_population

BOX = (np.zeros(3), np.ones(3))


def _point(x):
    """Squared distance to (0.3, 0.3, 0.3), rejected where x0 > 0.8."""
    d = x - 0.3
    return math.inf if x[0] > 0.8 else float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


def _population(xs):
    """_point row by row, in the same floating-point operations."""
    d = xs - 0.3
    return np.where(xs[:, 0] > 0.8, np.inf, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def test_convex_quadratic_stops_before_budget_at_its_minimum():
    res = minimize_box(_point, *BOX, popsize=7, max_evals=2000, restarts=5,
                       rng=np.random.default_rng(1))
    every_run_spent = 5 * (1 + 7 * ((2000 - 1) // 7))  # the last generation that fits
    assert res.evaluations < every_run_spent
    assert res.cost < 1e-10


def test_point_adapter_is_the_population_loop():
    runs = [
        minimize_box(_point, *BOX, popsize=7, max_evals=900, restarts=3, rng=np.random.default_rng(7)),
        minimize_population(_population, *BOX, popsize=7, max_evals=900, restarts=3,
                            rng=np.random.default_rng(7)),
    ]
    assert np.array_equal(runs[0].x, runs[1].x)
    assert runs[0].cost == runs[1].cost
    assert runs[0].evaluations == runs[1].evaluations


def test_all_inf_objective_spends_the_whole_budget():
    # inf - inf is nan: a range of rejected values must never read as converged
    res = minimize_population(lambda xs: np.full(len(xs), np.inf), *BOX, popsize=7,
                              max_evals=300, restarts=2, rng=np.random.default_rng(0))
    assert res.cost == math.inf
    assert res.evaluations == 2 * (1 + 7 * ((300 - 1) // 7))
