"""The report and exit status of tools/tree_ab.py, on hand-built window records (no fits run)."""

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import tree_ab  # noqa: E402


def _endpoint(kind, seed, t2, windows, seconds=1.0):
    """An endpoint record from (length, cost, evaluations, class) rows."""
    return {"endpoint": [kind, seed, t2], "seconds": seconds,
            "windows": [{"length": n, "cost": c, "evaluations": e, "class": k}
                        for n, c, e, k in windows]}


def _tree(seconds=1.0):
    return [
        _endpoint("bubble", 0, 659, [(650, 2.0, 3000, "positive-bubble"),
                                     (588, 1.5, 2800, "unqualified")], seconds),
        _endpoint("bubble", 1, 659, [(650, 2.5, 2600, "positive-bubble"),
                                     (588, 1.25, 2400, "negative-bubble")], 2 * seconds),
        _endpoint("null", 0, 659, [(650, 0.5, 2500, "unqualified"),
                                   (619, 0.25, 2000, "unqualified")], seconds),
    ]


def test_identical_trees_report_equal_costs_and_exit_0():
    a, b = _tree(), _tree(seconds=0.5)
    lines = tree_ab.report(a, b)
    assert "windows compared: 6" in lines
    assert "qualification flips: 0" in lines
    assert "endpoints with changed (pos, neg) counts: 0 of 3" in lines
    assert "bit-equal costs: 6 of 6" in lines
    # evaluations next to the group's seconds and its per-endpoint ratios b/a
    assert "  bubble t2=659: 2700 -> 2700 (1.000x); 3.000 -> 1.500 s, 0.500 [0.500, 0.500]" in lines
    # and under it the group's evaluations x window length, summed
    group = lines.index("  bubble t2=659: 2700 -> 2700 (1.000x); 3.000 -> 1.500 s, 0.500 [0.500, 0.500]")
    assert lines[group + 1] == "    work, evaluations x window length: 6697600 -> 6697600 (1.000x)"
    # and its cost changes in bands, risen / fallen
    assert lines[group + 2] == NO_CHANGE
    # the seconds are timings, not results: they never change the exit status
    assert tree_ab.exit_status(a, b, []) == 0


NO_CHANGE = "    costs risen / fallen, relative: > 1e-9 0 / 0, > 1e-6 0 / 0, > 1e-3 0 / 0"


def _moved(change):
    b = _tree()
    change(b)
    return b


@pytest.mark.parametrize("change, listed", [
    (lambda b: b[0]["windows"][1].update({"class": "positive-bubble"}),
     ["qualification flips: 1", "  ['bubble', 0, 659] n=588: unqualified -> positive-bubble",
      "endpoints with changed (pos, neg) counts: 1 of 3", "  ['bubble', 0, 659]: (1, 0) -> (2, 0)"]),
    (lambda b: b[1]["windows"][1].update({"class": "unqualified"}),
     ["  ['bubble', 1, 659]: (1, 1) -> (1, 0)"]),
    (lambda b: b[2]["windows"][1].update({"cost": 0.25 * (1 + 2e-6)}),
     ["bit-equal costs: 5 of 6",
      "    costs risen / fallen, relative: > 1e-9 1 / 0, > 1e-6 1 / 0, > 1e-3 0 / 0",
      "      ['null', 0, 659] n=619: +2e-06",
      "largest relative cost change: +2e-06 (['null', 0, 659] n=619)"]),
    (lambda b: b[2]["windows"][0].update({"cost": float("inf"), "evaluations": 3500,
                                          "class": "failed"}),
     ["qualification flips: 1", "  ['null', 0, 659] n=650: unqualified -> failed",
      "  null t2=659: 2250 -> 2750 (1.222x); 1.000 -> 1.000 s, 1.000 [1.000, 1.000]",
      # a failed window spent its evaluations: they count as work
      "    work, evaluations x window length: 2863000 -> 3513000 (1.227x)"]),
    # a tree whose FitFailedError carries no count records None: the window is left
    # out of both sides' evaluations
    (lambda b: b[2]["windows"][0].update({"cost": float("inf"), "evaluations": None,
                                          "class": "failed"}),
     ["  null t2=659: 2000 -> 2000 (1.000x); 1.000 -> 1.000 s, 1.000 [1.000, 1.000]",
      "    work, evaluations x window length: 1238000 -> 1238000 (1.000x)"]),
])
def test_moved_fits_are_listed_and_exit_1(change, listed):
    a, b = _tree(), _moved(change)
    lines = tree_ab.report(a, b)
    for line in listed:
        assert line in lines
    assert tree_ab.exit_status(a, b, []) == 1


def test_a_cost_change_below_the_bar_is_not_a_rise_but_still_exits_1():
    a, b = _tree(), _moved(lambda b: b[0]["windows"][0].update({"cost": 2.0 * (1 + 1e-12)}))
    lines = tree_ab.report(a, b)
    assert lines.count(NO_CHANGE) == 2
    assert "bit-equal costs: 5 of 6" in lines
    assert tree_ab.exit_status(a, b, []) == 1


def test_fallen_costs_are_counted_in_their_bands():
    def lower(b):
        b[0]["windows"][0]["cost"] = 2.0 * (1 - 5e-3)
        b[1]["windows"][1]["cost"] = 1.25 * (1 - 5e-8)
    a, b = _tree(), _moved(lower)
    lines = tree_ab.report(a, b)
    group = lines.index("    costs risen / fallen, relative: > 1e-9 0 / 2, > 1e-6 0 / 1, > 1e-3 0 / 1")
    assert lines[group + 1:group + 3] == ["      ['bubble', 0, 659] n=650: -0.005",
                                          "      ['bubble', 1, 659] n=588: -5e-08"]
    assert lines[group + 5] == NO_CHANGE  # the null group's
    assert tree_ab.exit_status(a, b, []) == 1


def test_a_count_only_one_tree_knows_compares_evenly():
    # a tree from before FitFailedError.evaluations records None for a failed
    # window; the other tree's count of it is left out, and equal fits exit 0
    def failed(evaluations):
        return lambda t: t[2]["windows"][0].update({"cost": float("inf"),
                                                    "evaluations": evaluations, "class": "failed"})
    a, b = _moved(failed(None)), _moved(failed(3500))
    lines = tree_ab.report(a, b)
    assert "  null t2=659: 2000 -> 2000 (1.000x); 1.000 -> 1.000 s, 1.000 [1.000, 1.000]" in lines
    assert "    work, evaluations x window length: 1238000 -> 1238000 (1.000x)" in lines
    assert tree_ab.exit_status(a, b, []) == 0
    assert tree_ab.exit_status(b, a, []) == 0
    # a count both trees know still counts
    assert tree_ab.exit_status(b, _moved(failed(3400)), []) == 1


def test_an_evaluation_count_change_alone_exits_1():
    a, b = _tree(), _moved(lambda b: b[0]["windows"][0].update({"evaluations": 2999}))
    assert "bit-equal costs: 6 of 6" in tree_ab.report(a, b)
    assert tree_ab.exit_status(a, b, []) == 1


@pytest.mark.parametrize("change", [
    lambda b: b[2]["windows"].pop(),
    lambda b: b[2]["endpoint"].__setitem__(1, 1),
    lambda b: b.pop(),
])
def test_trees_that_fitted_different_windows(change):
    a, b = _tree(), _moved(change)
    assert tree_ab.report(a, b) == ["the two trees fitted different windows"]
    assert tree_ab.exit_status(a, b, []) == 1


def test_a_differing_measure_exits_1_and_is_listed():
    a = _tree()
    readings = {side: [{"sweep_s": 1.0, "cmaes_us_per_gen": 10.0},
                       {"sweep_s": 2.0, "cmaes_us_per_gen": 20.0}] for side in "ab"}
    readings["b"][1] = {"sweep_s": 1.0, "cmaes_us_per_gen": 20.0}
    lines = tree_ab.timing_report(readings, [(2, "sweep_s")])
    assert lines[1].split() == ["sweep_s", "1.5", "1", "0.750", "[0.625,", "0.875]", "1/2", "1/2"]
    assert lines[2].split()[-2:] == ["0/2", "2/2"]
    assert lines[-1] == "seed 2: sweep_s: the two trees' results differ"
    assert tree_ab.exit_status(a, copy.deepcopy(a), [(2, "sweep_s")]) == 1
    assert tree_ab.exit_status(a, copy.deepcopy(a), []) == 0
