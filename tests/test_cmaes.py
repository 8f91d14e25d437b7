import hashlib
import math

import numpy as np
import pytest

from logperiodic import SearchConfig, ValidationError, Window, fit
from logperiodic import cmaes
from logperiodic.cmaes import minimize_box, minimize_problems

LO, HI = np.zeros(3), np.ones(3)
# irrational weights: (x @ _ROUGH) % 1 is a deterministic, patternless value in [0, 1)
_ROUGH = np.array([1e3 * math.sqrt(2.0), 1e3 * math.sqrt(3.0), 1e3 * math.sqrt(5.0)])


def _each(*funcs):
    """The objective of minimize_problems that hands problem p's rows to funcs[p]."""
    def func(points, parts):
        out = np.empty(len(points))
        for p, lo, hi in parts:
            out[lo:hi] = funcs[p](points[lo:hi])
        return out
    return func


def _point(x):
    """Squared distance to (0.3, 0.3, 0.3), rejected where x0 > 0.8."""
    d = x - 0.3
    return math.inf if x[0] > 0.8 else float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


def _population(xs):
    """_point row by row, in the same floating-point operations."""
    d = xs - 0.3
    return np.where(xs[:, 0] > 0.8, np.inf, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def test_convex_quadratic_stops_before_budget_at_its_minimum():
    res = minimize_box(_point, LO, HI, popsize=7, max_evals=2000, restarts=5,
                       rng=np.random.default_rng(1))
    every_run_spent = 5 * (1 + 7 * ((2000 - 1) // 7))  # the last generation that fits
    assert res.evaluations < every_run_spent
    assert res.cost < 1e-10


def test_point_adapter_is_the_population_loop():
    runs = [
        minimize_box(_point, LO, HI, popsize=7, max_evals=900, restarts=3, rng=np.random.default_rng(7)),
        minimize_problems(_each(_population), [LO], [HI], popsize=7, max_evals=900, restarts=3,
                          rngs=[np.random.default_rng(7)])[0],
    ]
    assert np.array_equal(runs[0].x, runs[1].x)
    assert runs[0].cost == runs[1].cost
    assert runs[0].evaluations == runs[1].evaluations


def test_all_inf_objective_spends_the_whole_budget():
    # inf - inf is nan: a range of rejected values must never read as converged;
    # an all-nan objective rejects every point as well
    for rejected in (np.inf, np.nan):
        res = minimize_problems(_each(lambda xs: np.full(len(xs), rejected)), [LO], [HI],
                                popsize=7, max_evals=300, restarts=2,
                                rngs=[np.random.default_rng(0)])[0]
        assert res.cost == math.inf
        assert res.evaluations == 2 * (1 + 7 * ((300 - 1) // 7))


_SETTINGS = {"popsize": 7, "max_evals": 300, "restarts": 2}


@pytest.mark.parametrize("name, bad, least", [
    ("popsize", 1, 2), ("max_evals", 0, 1), ("restarts", 0, 1), ("restarts", -3, 1),
])
def test_search_settings_below_their_least_are_rejected(name, bad, least):
    # popsize 1 failed in eigh, restarts 0 and -3 ran one restart, max_evals 0 spent one
    with pytest.raises(ValidationError, match=f"{name} must be >= {least}, got {bad}"):
        minimize_box(_point, LO, HI, rng=np.random.default_rng(0), **{**_SETTINGS, name: bad})
    # the least value runs clean: a RuntimeWarning fails the test
    minimize_box(_point, LO, HI, rng=np.random.default_rng(0), **{**_SETTINGS, name: least})


@pytest.mark.parametrize("name", sorted(_SETTINGS))
def test_search_settings_must_be_integers(name):
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got 2.5"):
        minimize_box(_point, LO, HI, rng=np.random.default_rng(0), **{**_SETTINGS, name: 2.5})


def _rejecting(value, centre):
    """Squared distance to `centre`, `value` where x0 > 0.7: a face of the box rejected."""
    def func(xs):
        d = xs - centre
        return np.where(xs[:, 0] > 0.7, value, (d * d).sum(axis=1))
    return func


def test_nan_rejects_a_point_as_inf_does():
    # a run whose start point reads nan must not keep nan as its best (no value
    # is below nan), nor return that start point as its problem's result
    for seed in range(4):
        searches = []
        for value in (np.inf, np.nan):
            objective = _each(_rejecting(value, 0.3), _rejecting(value, 0.6))
            calls = []

            def func(points, parts):
                calls.append(np.array(points))
                return objective(points, parts)

            found = minimize_problems(func, [LO, LO], [HI, HI], popsize=7, max_evals=600,
                                      restarts=4, rngs=[np.random.default_rng(s)
                                                        for s in (seed, seed + 100)])
            searches.append((calls, found))
        (inf_calls, inf_found), (nan_calls, nan_found) = searches
        assert len(inf_calls) == len(nan_calls)
        assert all(np.array_equal(a, b) for a, b in zip(inf_calls, nan_calls))
        for a, b in zip(inf_found, nan_found):
            assert np.array_equal(a.x, b.x) and (a.cost, a.evaluations) == (b.cost, b.evaluations)
            assert a.cost < 1e-10


def _two_wells(xs):
    """Global minimum 0 at (0.2, 0.3, 0.3); a local well at (0.85, 0.7, 0.7) floored near 1.

    The well's floor is rough: the roughness keeps the values of a run in the well apart, so TolFun
    never ends it and its best still creeps down now and then.
    """
    d = xs - (0.2, 0.3, 0.3)
    e = xs - (0.85, 0.7, 0.7)
    rough = 1e-3 * ((xs @ _ROUGH) % 1.0)
    return np.minimum(100.0 * np.sum(d * d, axis=1), 1.0 + 100.0 * np.sum(e * e, axis=1) + rough)


def test_run_stalled_behind_a_better_run_stops_early():
    budget = 1 + 7 * ((2000 - 1) // 7)
    alone, both = (minimize_problems(_each(_two_wells), [LO], [HI], popsize=7, max_evals=2000,
                                     restarts=r, rngs=[np.random.default_rng(0)])[0]
                   for r in (1, 2))
    # run 0 converges in the global basin; run 1 falls into the rough well,
    # where without the stall rule it spends its whole budget
    assert alone.cost == both.cost < 1e-10
    assert alone.evaluations < budget
    assert both.evaluations - alone.evaluations < budget / 3


def test_leading_run_is_never_stopped_for_stalling():
    # 0 at the start point (the box center) and above 0 elsewhere: the run
    # never improves on its first value, but it leads, so it spends the budget
    res = minimize_problems(_each(lambda xs: ((xs - 0.5) @ _ROUGH) % 1.0), [LO], [HI], popsize=7,
                            max_evals=2000, restarts=1, rngs=[np.random.default_rng(0)])[0]
    assert res.cost == 0.0
    assert res.evaluations == 1 + 7 * ((2000 - 1) // 7)


# TolFun's history length at n = 3, lambda = 7: the catch-up rule's window, in generations
_HISTORY = 10 + math.ceil(30 * 3 / 7)


def _trench(xs):
    """Global minimum 0 at (0.2, 0.3, 0.3); a rough trench along x0 at x1 = x2 = 0.7, floored near 1."""
    d = xs - (0.2, 0.3, 0.3)
    e = xs[:, 1:] - 0.7
    rough = 1e-3 * ((xs @ _ROUGH) % 1.0)
    return np.minimum(100.0 * np.sum(d * d, axis=1), 1.0 + 100.0 * np.sum(e * e, axis=1) + rough)


def _near_tie(xs):
    """Global minimum 0 at (0.2, 0.3, 0.3); a smooth second well floored at 1e-6."""
    d = xs - (0.2, 0.3, 0.3)
    e = xs - (0.85, 0.7, 0.7)
    return np.minimum(100.0 * np.sum(d * d, axis=1), 1e-6 + 100.0 * np.sum(e * e, axis=1))


def _rough_well(xs):
    """One well floored near 1, rough enough that its runs creep down it to the end."""
    e = xs - (0.6, 0.4, 0.5)
    return 1.0 + 100.0 * np.sum(e * e, axis=1) + 1e-3 * ((xs @ _ROUGH) % 1.0)


def _two_runs(objective, seed, lam=7, far_behind=None):
    """Runs 0 and 1 of a two-restart search: each one's rows and best value, per generation.

    Entry g of a run is generation g (0 is its start point); a run's last entry is the
    generation at whose end it stopped. Once one run has stopped, every later call holds the
    other's rows. Run 0 draws the same samples whatever the restart count, so those rows are
    run 0's when all of them equal its rows alone (one generation's rows can equal it by
    chance, when every row is clipped onto one box corner).
    """
    def recording(calls):
        def func(points, parts):
            calls.append(np.array(points))
            return objective(points)
        return func

    alone, both = [], []
    for calls, restarts in ((alone, 1), (both, 2)):
        minimize_problems(recording(calls), [LO], [HI], popsize=lam, max_evals=2000,
                          restarts=restarts, rngs=[np.random.default_rng(seed)],
                          far_behind=far_behind)
    first = 1 + sum(len(points) == 2 * lam for points in both[1:])  # one run's rows from here
    rows = [[both[0][:1], *(p[:lam] for p in both[1:first])],
            [both[0][1:], *(p[lam:] for p in both[1:first])]]
    rest = both[first:]
    zero_goes_on = len(alone) >= len(both) and all(
        np.array_equal(p, alone[g]) for g, p in enumerate(rest, start=first))
    rows[0 if zero_goes_on else 1] += rest
    best = [np.minimum.accumulate([objective(r).min() for r in run]) for run in rows]
    return rows, best, len(alone) - 1


def _leader(best, g):
    """The least best value over both runs after generation g, a stopped run's included."""
    return min(b[min(g, len(b) - 1)] for b in best)


def _creeping(best, run, g):
    """Run `run` trails at g, and its best fell over the last history, by at most 0.1 of its gap."""
    now, then, lead = best[run][g], best[run][g - _HISTORY], _leader(best, g)
    return lead < now and 0.0 < then - now <= 0.1 * (now - lead)


def test_trailing_run_creeping_with_a_small_step_stops_early():
    # run 0 converges in the global well; run 1 creeps down the rough trench
    _, best, _ = _two_runs(_trench, seed=2)
    stop = len(best[1]) - 1
    assert best[0][-1] < 1e-10 < 1.0 < best[1][-1]
    # it stopped while still lowering its best, so the stall rule alone would have gone on
    assert _creeping(best, 1, stop)
    assert stop < (2000 - 1) // 7 / 4


def test_trailing_run_creeping_with_a_large_step_is_not_stopped():
    # the run of the previous test crept for generations before it stopped: its step was
    # still 1e-2 or more, as its rows show at the first of them
    rows, best, _ = _two_runs(_trench, seed=2)
    stop = len(best[1]) - 1
    crept = [g for g in range(_HISTORY, stop) if _creeping(best, 1, g)]
    assert len(crept) >= 5
    assert np.ptp(rows[1][crept[0]], axis=0).max() > 2e-2


def test_trailing_run_closing_its_gap_is_not_stopped():
    # run 1 converges into a second well whose floor lies 1e-6 above the leader's; its
    # step falls below 1e-2 long before, but each history it closes most of its gap
    _, best, _ = _two_runs(_near_tie, seed=0)
    assert best[0][-1] < 1e-10
    assert 1e-6 < best[1][-1] < 1e-6 * (1.0 + 1e-3)


def test_leading_run_is_never_stopped():
    # both runs creep down one rough well with a small step; the one that leads at the
    # end, run 0, even stalls for a history at times, yet it runs exactly the
    # generations it runs alone, here the whole budget
    rows, best, alone = _two_runs(_rough_well, seed=4)
    assert best[0][-1] < best[1][-1]
    assert any(best[0][g] == best[0][g - _HISTORY] for g in range(_HISTORY, len(best[0])))
    assert len(best[1]) - 1 < alone == len(rows[0]) - 1 == (2000 - 1) // 7


def _bowl(xs):
    """One smooth well: minimum 0 at (0.3, 0.3, 0.3)."""
    d = xs - 0.3
    return 100.0 * np.sum(d * d, axis=1)


def _twin_wells(xs):
    """Global minimum 0 at (0.3, 0.3, 0.3); a second well 5e-3 away along x0, floored at 1e-6."""
    d = xs - (0.3, 0.3, 0.3)
    e = xs - (0.305, 0.3, 0.3)
    return np.minimum(100.0 * np.sum(d * d, axis=1), 1e-6 + 100.0 * np.sum(e * e, axis=1))


def _best_points(objective, rows):
    """Each run's best point after each generation: the first row that strictly lowered its best."""
    points = []
    for run in rows:
        own, least = [], math.inf
        for r in run:
            values = objective(r)
            k = int(np.argmin(values))
            if values[k] < least:
                least, point = values[k], r[k]
            own.append(point)
        points.append(own)
    return points


def _near_leader(best, points, run, g):
    """Run `run` trails at g, and its best point is within 1e-3 of the leader's in every coordinate."""
    at = [min(g, len(b) - 1) for b in best]
    lead = min((0, 1), key=lambda j: best[j][at[j]])  # the first run with the least best
    return (best[lead][at[lead]] < best[run][g]
            and np.abs(points[run][g] - points[lead][at[lead]]).max() < 1e-3)


def test_trailing_run_in_its_leaders_basin_stops_there():
    # in one well, run 1 trails run 0 down to the same minimum; it stops at the end of the
    # first generation that leaves its best point within 1e-3 of run 0's, long before
    # TolFun or TolX would end it, and run 0 runs exactly the generations it runs alone
    rows, best, alone = _two_runs(_bowl, seed=0)
    points = _best_points(_bowl, rows)
    stop = len(best[1]) - 1
    assert [g for g in range(stop + 1) if _near_leader(best, points, 1, g)] == [stop]
    assert stop < alone / 3
    assert len(best[0]) - 1 == alone
    assert best[0][-1] < 1e-10 < best[1][-1]


def test_trailing_run_in_a_neighbouring_basin_is_not_stopped_by_it():
    # run 0 ends in the well 5e-3 from the global one, where run 1 converges: its best
    # point never comes within 1e-3 of run 1's, so it goes on until it has settled on
    # its own floor
    rows, best, _ = _two_runs(_twin_wells, seed=0)
    points = _best_points(_twin_wells, rows)
    assert best[1][-1] < 1e-10
    assert 1e-6 < best[0][-1] < 1e-6 * (1.0 + 1e-3)
    assert 4e-3 < np.abs(points[0][-1] - points[1][-1]).max() < 6e-3
    assert not any(_near_leader(best, points, 0, g) for g in range(len(best[0])))


def _slope(xs):
    """Least, 0.0, at the box corner (0, 0, 0) alone, which clipped rows reach exactly."""
    return xs.sum(axis=1)


def test_run_tying_its_leader_is_not_stopped_by_it():
    # both runs reach the corner; from the generation both hold it, run 1 ties the leader,
    # run 0 (the first run with the least best), at distance 0, yet it goes on for more than
    # a history, and run 0 runs exactly the generations it runs alone
    rows, best, alone = _two_runs(_slope, seed=0)
    points = _best_points(_slope, rows)
    tie = next(g for g in range(len(best[0])) if best[0][g] == best[1][g] == 0.0)
    assert np.array_equal(points[0][tie], points[1][tie])
    assert len(best[1]) - 1 > tie + _HISTORY
    assert len(best[0]) - 1 == alone


def _cube(xs):
    """0 on the cube of half-width 0.1 around the box center; a rough well floored near 1 elsewhere.

    A run that starts at the center stops on TolFun once its generations land in the cube.
    """
    c = xs - 0.5
    flat = np.where(np.abs(c).max(axis=1) < 0.1, 0.0, 1.0 + 10.0 * np.sum(c * c, axis=1))
    e = xs - (0.9, 0.1, 0.9)
    return np.minimum(flat, 1.0 + 100.0 * np.sum(e * e, axis=1) + 1e-3 * ((xs @ _ROUGH) % 1.0))


def test_lone_run_behind_a_leader_stopped_on_tolfun_still_stops_by_catch_up():
    # run 0 stops on TolFun: every value of its last generation, and the best of each
    # generation of the history before it, is 0. Run 1 goes on alone in the rough well,
    # behind it; being the last running run of its problem must not spare it the
    # catch-up rule, which stops it long before its budget
    rows, best, alone = _two_runs(_cube, seed=6)
    stops = [len(b) - 1 for b in best]
    assert stops[0] == alone < stops[1] < (2000 - 1) // 7 / 4
    assert all(_cube(r).min() == 0.0 for r in rows[0][stops[0] - _HISTORY + 1 :])
    assert not _cube(rows[0][-1]).any()
    assert best[0][-1] == 0.0 < best[1][-1]
    assert _creeping(best, 1, stops[1])


def test_rules_between_runs_hold_while_another_problem_is_down_to_its_leader():
    # _bowl: run 1 stops in run 0's basin, leaving run 0 alone from generation 29 on.
    # _trench: run 1 trails run 0 until the catch-up rule stops it at generation 38.
    # _cube: run 0 stops on TolFun at 29, and run 1 trails it alone until 43.
    # Lone leaders never stop by the rules between runs, but the batch may skip those
    # rules only once no running run of any problem trails: each problem's search must
    # be the one it makes alone, bit for bit
    objectives, seeds = [_bowl, _trench, _cube], [0, 2, 6]
    calls = []

    def recording(points, parts):
        calls.append([(hi - lo) // 7 for _, lo, hi in parts])
        return _each(*objectives)(points, parts)

    batch = minimize_problems(recording, [LO] * 3, [HI] * 3, popsize=7, max_evals=2000,
                              restarts=2, rngs=[np.random.default_rng(s) for s in seeds])
    for objective, seed, found in zip(objectives, seeds, batch):
        alone = minimize_problems(_each(objective), [LO], [HI], popsize=7, max_evals=2000,
                                  restarts=2, rngs=[np.random.default_rng(seed)])[0]
        assert np.array_equal(found.x, alone.x)
        assert found.cost == alone.cost
        assert found.evaluations == alone.evaluations
    # running runs per problem at each generation: both layouts occur
    assert [1, 2, 1] in calls[1:] and [1, 1, 1] in calls[1:]


def _far_wells(floor):
    """Never negative: a well floored at 0.01 at (0.2, 0.3, 0.3), one floored at `floor` at (0.85, 0.7, 0.7)."""
    def func(xs):
        d = xs - (0.2, 0.3, 0.3)
        e = xs - (0.85, 0.7, 0.7)
        return np.minimum(1e-2 + 100.0 * np.sum(d * d, axis=1), floor + 100.0 * np.sum(e * e, axis=1))
    return func


def test_run_far_behind_its_leader_stops_after_one_history():
    # run 0 converges in the well floored at 0.01; run 1 falls into the one floored 20
    # times higher. With far_behind = 10 it stops at the end of generation H, the first
    # the rule reads; without it the catch-up rule ends it only later
    _, best, alone = _two_runs(_far_wells(0.2), seed=0, far_behind=10.0)
    assert len(best[1]) - 1 == _HISTORY
    assert best[1][-1] > 10.0 * best[0][_HISTORY]
    assert len(best[0]) - 1 == alone
    _, off, _ = _two_runs(_far_wells(0.2), seed=0)
    assert len(off[1]) - 1 > _HISTORY + 10
    assert 0.2 < off[1][-1] < 0.2 * (1.0 + 1e-3)
    assert off[0][-1] == best[0][-1]


@pytest.mark.parametrize("seed", range(4))
def test_run_five_times_behind_its_leader_is_not_stopped_by_far_behind(seed):
    # run 1 settles in a well floored 5 times above the leader's floor: the rule never
    # fires, and the whole search is the one made without it, bit for bit
    objective = _far_wells(0.05)
    with_rule, _, _ = _two_runs(objective, seed, far_behind=10.0)
    without, best, _ = _two_runs(objective, seed)
    assert all(len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
               for a, b in zip(with_rule, without))
    assert 0.05 < max(b[-1] for b in best) < 0.05 * (1.0 + 1e-3)


@pytest.mark.parametrize("seed, leader", [(0, 0), (9, 1)])
def test_leading_run_is_never_stopped_by_far_behind(seed, leader):
    # at a ratio just above 1 every trailing run stops at generation H; the run that
    # leads then goes on, generation for generation, as it does without the rule
    objective = _far_wells(0.2)
    rows, best, _ = _two_runs(objective, seed, far_behind=1.0 + 1e-6)
    rows_off, best_off, _ = _two_runs(objective, seed)
    assert len(best[1 - leader]) - 1 == _HISTORY
    assert len(rows[leader]) == len(rows_off[leader])
    assert all(np.array_equal(x, y) for x, y in zip(rows[leader], rows_off[leader]))
    assert best[leader][-1] == min(b[-1] for b in best_off) < 0.01 * (1.0 + 1e-3)


def test_far_behind_leaves_a_single_restart_alone():
    # with one restart nothing trails: every call of the search is the one it makes without the rule
    for objective, seed in ((_far_wells(0.2), 0), (_far_wells(0.2), 9), (_rough_well, 4)):
        calls = {}
        for far_behind in (None, 1.0 + 1e-6):
            calls[far_behind] = []

            def func(points, parts, record=calls[far_behind]):
                record.append(np.array(points))
                return objective(points)

            minimize_problems(func, [LO], [HI], popsize=7, max_evals=2000, restarts=1,
                              rngs=[np.random.default_rng(seed)], far_behind=far_behind)
        a, b = calls.values()
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _recorded(objective, seed, restarts=1, **options):
    """Every call of a one-problem search of `objective`, and its result."""
    calls = []

    def func(points, parts):
        calls.append(np.array(points))
        return objective(points)

    found = minimize_problems(func, [LO], [HI], popsize=7, max_evals=2000, restarts=restarts,
                              rngs=[np.random.default_rng(seed)], **options)[0]
    return calls, found


@pytest.mark.parametrize("objective, seed", [(_two_wells, 0), (_rough_well, 4), (_population, 2)])
def test_lone_leader_is_handed_off_at_its_first_step_below_the_constant(objective, seed, monkeypatch):
    # the handoff reads TolX's step, sigma * spread in box units: a single run, a
    # lone leader throughout, makes the same calls under handoff = h as under a
    # TolX threshold of h (h / sigma0 relative to the initial step 1/4), and
    # stops well before the search without it
    handed, found = _recorded(objective, seed, handoff=1e-3)
    plain, _ = _recorded(objective, seed)
    monkeypatch.setattr(cmaes, "_TOL_X", 1e-3 / 0.25)
    tolx, same = _recorded(objective, seed)
    assert len(handed) == len(tolx) < len(plain) - 10
    assert all(np.array_equal(a, b) for a, b in zip(handed, tolx))
    assert (found.cost, found.evaluations) == (same.cost, same.evaluations)


def _mesa(xs):
    """0 on a flat mesa around the box center; elsewhere a rough slope floored near 1."""
    e = xs - (0.9, 0.1, 0.9)
    return np.where(np.abs(xs - 0.5).max(axis=1) < 0.2, 0.0,
                    1.0 + np.sum(e * e, axis=1) + 1e-3 * ((xs @ _ROUGH) % 1.0))


@pytest.mark.parametrize("seed", [1, 19])
def test_trailing_run_is_never_handed_off(seed):
    # the run on the mesa leads, and TolFun ends it after one history; the other
    # still runs off the mesa, alone and behind it. Under a handoff at any step it
    # runs on as it does without one, call for call
    handed, found = _recorded(_mesa, seed, restarts=2, handoff=1e9)
    plain, _ = _recorded(_mesa, seed, restarts=2)
    alone = [p for p in plain[1:] if len(p) == 7]
    assert alone and all((_mesa(p) > 0.0).all() for p in alone)
    assert len(handed) == len(plain)
    assert all(np.array_equal(a, b) for a, b in zip(handed, plain))
    assert found.cost == 0.0


def test_no_handoff_makes_the_calls_of_the_search_without_the_rule():
    # handoff=None, the default: two problems of three restarts make the objective
    # calls, bit for bit, of the search from before the rule existed
    out = []
    for objective, far_behind in ((_two_wells, None), (_trench, 10.0), (_rough_well, None)):
        calls = []

        def func(points, parts, objective=objective):
            calls.append(np.array(points))
            return _each(objective, objective)(points, parts)

        found = minimize_problems(func, [LO, LO], [HI, HI], popsize=7, max_evals=2000, restarts=3,
                                  rngs=[np.random.default_rng(3), np.random.default_rng(4)],
                                  far_behind=far_behind, handoff=None)
        digest = hashlib.sha256(b"".join(p.tobytes() for p in calls)).hexdigest()[:16]
        out.append((len(calls), [f.cost.hex() for f in found], [f.evaluations for f in found],
                    digest))
    assert out == [
        (114, ["0x1.38522d74625d1p-52", "0x1.839b90652d07ap-51"], [1214, 1284], "e13347525c31f93e"),
        (110, ["0x1.8b5a0c72bb554p-55", "0x1.8b8035da014d8p-54"], [1053, 1088], "acd0b1310dbee425"),
        (286, ["0x1.000141ab6dfb6p+0", "0x1.0000408b1c362p+0"], [2439, 2593], "69723919ef1a2cf3"),
    ]


def _search(**change):
    """A two-problem minimize_problems call with `change` applied to its arguments."""
    args = {"func": _each(_population, _population), "lowers": [LO, LO], "uppers": [HI, HI],
            "popsize": 7, "max_evals": 300, "restarts": 2,
            "rngs": [np.random.default_rng(0), np.random.default_rng(1)], **change}
    return minimize_problems(**args)


@pytest.mark.parametrize("change, message", [
    # zero problems died on a bare ValueError, one generator for two problems on an IndexError
    ({"lowers": [], "uppers": [], "rngs": []}, "minimize_problems needs at least one problem"),
    ({"rngs": [np.random.default_rng(0)]}, "one generator per problem: 2 problems, got 1 generators"),
    ({"lowers": LO, "uppers": HI}, "lowers and uppers must both have shape (problems, dimension), "
                                   "got (3,) and (3,)"),
    ({"uppers": [HI, HI, HI]}, "lowers and uppers must both have shape (problems, dimension), "
                               "got (2, 3) and (3, 3)"),
    ({"lowers": np.zeros((2, 0)), "uppers": np.zeros((2, 0))},
     "lowers and uppers must both have shape (problems, dimension), got (2, 0) and (2, 0)"),
    # these two ran silently and returned a result
    ({"lowers": [LO, (0.0, 1.0, 0.0)]},
     "problem 1: bounds must be finite with lower < upper, got [0.0, 1.0, 0.0] and [1.0, 1.0, 1.0]"),
    ({"uppers": [HI, (1.0, math.nan, 1.0)]},
     "problem 1: bounds must be finite with lower < upper, got [0.0, 0.0, 0.0] and [1.0, nan, 1.0]"),
    ({"lowers": [(-math.inf, 0.0, 0.0), LO]},
     "problem 0: bounds must be finite with lower < upper, got [-inf, 0.0, 0.0] and [1.0, 1.0, 1.0]"),
    ({"far_behind": 1.0}, "far_behind must be None or a finite number > 1, got 1.0"),
    ({"far_behind": 0.5}, "far_behind must be None or a finite number > 1, got 0.5"),
    ({"far_behind": math.inf}, "far_behind must be None or a finite number > 1, got inf"),
    ({"far_behind": math.nan}, "far_behind must be None or a finite number > 1, got nan"),
    ({"far_behind": "10"}, "far_behind must be None or a finite number > 1, got '10'"),
    ({"handoff": 0.0}, "handoff must be None or a finite number > 0, got 0.0"),
    ({"handoff": math.inf}, "handoff must be None or a finite number > 0, got inf"),
])
def test_searches_it_cannot_run_are_rejected(change, message):
    with pytest.raises(ValidationError) as caught:
        _search(**change)
    assert str(caught.value) == message


def test_ragged_bounds_are_rejected():
    # numpy's own words follow the colon
    with pytest.raises(ValidationError) as caught:
        _search(lowers=[LO, LO[:2]])
    assert str(caught.value).startswith("lowers and uppers must both have shape (problems, dimension): ")


def test_least_settings_of_a_search_run():
    # bounds that differ by a little, a far_behind just above 1 and an integer one all run
    found = _search(uppers=[HI, np.full(3, 1e-9)], far_behind=1.0 + 1e-9)
    assert all(math.isfinite(f.cost) for f in found)
    assert _search(far_behind=2)[0].cost == _search(far_behind=2.0)[0].cost


def test_single_restart_fit_is_pinned(strong_bubble):
    # with one restart no rule between runs fires, but the one run is a lone
    # leader: the handoff ends its search once its step is below 1e-3, and
    # the polish finishes the fit. The search alone made 967 evaluations and
    # reached 0x1.287bb3282fe42p-9; the polish stops within 1e-12 of it
    _, series = strong_bubble
    res = fit(series, Window(300, 419), SearchConfig(seed=5, restarts=1))
    assert res.evaluations == 444
    assert res.cost.hex() == "0x1.287bb328319edp-9"


def test_default_restart_fit_is_pinned(strong_bubble):
    # all five restarts: at generation 23, one TolFun history, runs 0-3 are each
    # more than ten times behind run 4 and stop by the far-behind rule that fit
    # turns on; run 4, the leader, goes on until the handoff ends it (TolFun
    # did, after 1552 evaluations, before the handoff), and the polish finishes
    # the fit. A change to the restart bookkeeping that moves one bit of the
    # search fails here
    _, series = strong_bubble
    res = fit(series, Window(300, 419), SearchConfig(seed=5))
    assert res.evaluations == 1062
    assert res.cost.hex() == "0x1.287bb32831b4fp-9"


def test_restart_streams_nest():
    # run r draws from its own child stream, so adding runs only adds trajectories.
    # The rules between runs could still cut an earlier run short once a later
    # one leads. Here none does: on this convex quadratic each run after run 0
    # is stopped by the same-basin rule behind run 0, which leads for the last
    # generations before each of those stops, whatever the restart count.
    runs = [minimize_problems(_each(_population), [LO], [HI], popsize=7, max_evals=2000, restarts=r,
                              rngs=[np.random.default_rng(11)])[0]
            for r in range(1, 6)]
    costs = [r.cost for r in runs]
    evals = [r.evaluations for r in runs]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert all(b > a for a, b in zip(evals, evals[1:]))


def test_one_call_per_generation_for_all_running_restarts():
    lam, restarts = 7, 5
    sizes = []

    def recording(xs):
        sizes.append(len(xs))
        return _population(xs)

    res = minimize_problems(_each(recording), [LO], [HI], popsize=lam, max_evals=2000,
                            restarts=restarts, rngs=[np.random.default_rng(11)])[0]
    # per-run evaluations, from the nesting of the restart streams (which the
    # rules between runs leave intact here, see test_restart_streams_nest)
    totals = [0] + [minimize_problems(_each(_population), [LO], [HI], popsize=lam, max_evals=2000,
                                      restarts=r, rngs=[np.random.default_rng(11)])[0].evaluations
                    for r in range(1, restarts + 1)]
    gens = [(b - a - 1) // lam for a, b in zip(totals, totals[1:])]
    assert sizes[0] == restarts  # the start points
    assert sizes[1:] == [lam * sum(g >= gen for g in gens) for gen in range(1, max(gens) + 1)]
    assert max(sizes) <= restarts * lam
    assert len(set(sizes[1:])) > 1  # the batch shrank as runs stopped
    assert sum(sizes) == res.evaluations == totals[-1]


def test_one_call_per_generation_with_each_problems_own_rows():
    lam, restarts = 7, 3
    # disjoint boxes; problem 2 rejects everything, so its runs spend the budget
    boxes = [(np.full(3, 2.0 * p), np.full(3, 2.0 * p + 1.0 + p)) for p in range(3)]
    objectives = [
        lambda xs: _population(xs - 0.0),
        lambda xs: _population(xs - 2.25),
        lambda xs: np.full(len(xs), np.inf),
    ]
    seeds = [5, 6, 7]

    def recording(problems, calls):
        def func(points, parts):
            calls.append((np.array(points), list(parts)))
            return _each(*(objectives[p] for p in problems))(points, parts)
        return func

    batch_calls = []
    batch = minimize_problems(recording(range(3), batch_calls),
                              [lo for lo, _ in boxes], [hi for _, hi in boxes],
                              popsize=lam, max_evals=900, restarts=restarts,
                              rngs=[np.random.default_rng(s) for s in seeds])
    alone_calls = [[] for _ in range(3)]
    alone = [minimize_problems(recording([p], alone_calls[p]), [boxes[p][0]], [boxes[p][1]],
                               popsize=lam, max_evals=900, restarts=restarts,
                               rngs=[np.random.default_rng(seeds[p])])[0]
             for p in range(3)]

    for p in range(3):
        assert np.array_equal(batch[p].x, alone[p].x)
        assert batch[p].cost == alone[p].cost
        assert batch[p].evaluations == alone[p].evaluations
    # the start points, then one call per generation while any run is going
    generations = [len(calls) - 1 for calls in alone_calls]
    assert len(batch_calls) == max(generations) + 1
    assert len(set(generations)) == 3  # the problems stop at different generations
    for g, (points, parts) in enumerate(batch_calls):
        # the parts cover the rows of exactly the problems still running, in problem order
        assert [p for p, _, _ in parts] == [p for p in range(3) if generations[p] >= g]
        assert [lo for _, lo, _ in parts] == [0] + [hi for _, _, hi in parts[:-1]]
        assert parts[-1][2] == len(points)
        # and each problem's slice holds the rows it gets when it runs alone
        for p, lo, hi in parts:
            own_points, own_parts = alone_calls[p][g]
            assert own_parts == [(0, 0, len(own_points))]
            assert np.array_equal(points[lo:hi], own_points)
