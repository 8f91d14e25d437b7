"""Time the fits of two source trees side by side in one interpreter.

    python tools/fit_ab.py <src-a> <src-b> [--pairs N] [--seed K] [--repeat R]

<src-a> and <src-b> are directories that hold a `logperiodic` package (a
checkout's `src`). Both are imported into this one process under the names
`logperiodic_a0`, `logperiodic_b0`, `logperiodic_b1` and `logperiodic_a1`,
so they share the interpreter, numpy, BLAS and the host's state of the
moment; a drift of the host over the run falls on both sides of every pair
alike. Each pair times every measure on both trees, unit by unit: a fit, a
chunk, a kernel call or a search of one tree, then the same of the other.
Even pairs run a's first copy first and b's first copy second, odd pairs
b's second copy first and a's second copy second, so neither the order of
the runs nor that of the imports favours a side. The measures:

- `sweep_s`: the fit-sweep workload's fits, one `fit` per window length
  650..30 step 62 ending at the bubble end, each under its scan seed, in
  seconds summed over the 11 fits;
- `desk_s`: the desk-bubble workload's fits, each chunk of windows of
  endpoints 659 and 667 (650..30 step 62) as one lockstep search, in
  seconds summed over the chunks;
- `kernel_us.n340.K7` and `.K19`: one call of the search's objective on K
  rows of one 340-point window, in µs, the median of R calls;
- `cmaes_us_per_gen`: a five-restart search of a 3-dimensional sphere with
  an objective that costs next to nothing and rejects (+inf) the points
  with x0 > 0.8, so that generations holding a rejected row are timed
  too, in µs per generation, the median of 5 searches.

Series seed K + i feeds pair i's fits, and the kernel rows are drawn from
it. The series come from `perfbench/inputs.py`, which does not use the
library, read back through each tree's `ingest`. The report gives, per
measure, each side's median, the median and quartiles over pairs of the
ratio b/a (as `tools/bench_pairs.py` summarizes its pairs) and the number
of pairs b wins (a strictly lower value). The two trees must
compute the same thing: the tool exits 1 when their fits' costs or
evaluations, their objective values or their searches differ; 0
otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import spread

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
import inputs  # noqa: E402

LENGTHS = range(650, 29, -62)
DESK_ENDPOINTS = (659, 667)
KERNEL_N = 340
KERNEL_ROWS = (7, 19)


def load(src: str, name: str):
    """The logperiodic package under `src`, imported as module `name`."""
    init = Path(src).resolve() / "logperiodic" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sweep_units(lp, series, seed: int):
    """One zero-argument call per fit of the fit-sweep, each returning (cost, evaluations)."""
    def unit(length):
        window = lp.Window(inputs.ANCHOR - length + 1, inputs.ANCHOR)
        cfg = lp.SearchConfig().with_seed(lp.window_seed(seed, inputs.ANCHOR, length))

        def run():
            try:
                result = lp.fit(series, window, cfg)
            except lp.FitFailedError:
                return None
            return result.cost, result.evaluations
        return run
    return [unit(length) for length in LENGTHS]


def desk_units(lp, series, seed: int):
    """One zero-argument call per desk-bubble chunk, each returning its [(cost, evaluations)]."""
    scheme = lp.WindowScheme(650, 30, 62)

    def unit(t2, chunk):
        seeds = [lp.window_seed(seed, t2, w.length) for w in chunk]
        return lambda: [None if isinstance(r, lp.FitFailedError) else (r.cost, r.evaluations)
                        for r in lp.calibrate._fit_windows(series, chunk, lp.SearchConfig(), seeds)]
    return [unit(t2, chunk) for t2 in DESK_ENDPOINTS
            for chunk in lp.indicator._chunks(lp.windows_for(t2, scheme))]


def kernel_unit(lp, series, rows: int, seed: int):
    """One objective call on `rows` rows of a KERNEL_N-point window, as the search makes it."""
    window = lp.Window(inputs.ANCHOR - KERNEL_N + 1, inputs.ANCHOR)
    cfg = lp.SearchConfig()
    tc_lo, tc_hi = cfg.tc_bounds(window)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(tc_lo + 0.01, tc_hi, rows),
                              rng.uniform(cfg.m_min, cfg.m_max, rows),
                              rng.uniform(cfg.omega_min, cfg.omega_max, rows)])
    func = lp.calibrate._objective([lp.calibrate._window_arrays(series, window)], cfg)
    parts = [(0, 0, rows)]
    return lambda: func(points, parts).tolist()


def cmaes_unit(lp, seed: int):
    """A five-restart search of a sphere rejected where x0 > 0.8; returns its generations and result."""
    def run():
        calls = 0

        def func(points, parts):
            nonlocal calls
            calls += 1
            d = points - 0.3
            return np.where(points[:, 0] > 0.8, np.inf, (d * d).sum(axis=1))

        found = lp.cmaes.minimize_problems(func, [np.zeros(3)], [np.ones(3)], popsize=7,
                                           max_evals=2000, restarts=5,
                                           rngs=[np.random.default_rng(seed)])[0]
        return calls, found.cost, found.evaluations
    return run


def interleave(units: dict, first: str, repeat: int = 1) -> tuple[dict, dict]:
    """Run each side's i-th unit back to back, `first` side first, `repeat` times over.

    Returns each side's list of per-unit seconds (unit by unit, repeats in turn) and the
    results of its first pass.
    """
    order = (first, "b" if first == "a" else "a")
    times, results = {s: [] for s in order}, {s: [] for s in order}
    for r in range(repeat):
        for pair in zip(*(units[s] for s in order)):
            for side, unit in zip(order, pair):
                start = time.perf_counter()
                out = unit()
                times[side].append(time.perf_counter() - start)
                if r == 0:
                    results[side].append(out)
    return times, results


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="series seed of the first pair")
    parser.add_argument("--repeat", type=int, default=200, help="kernel calls per reading")
    args = parser.parse_args(argv)
    if not all((Path(s) / "logperiodic" / "__init__.py").is_file() for s in (args.src_a, args.src_b)):
        parser.error("both source arguments must be directories holding a logperiodic package")
    if args.pairs < 1 or args.repeat < 1:
        parser.error("--pairs and --repeat must be at least 1")
    # Each tree is imported twice, in the order a, b, b, a: the copy imported
    # later ran the same search up to 3% faster here, so the pairs alternate
    # between a's first copy against b's first and b's second against a's.
    imported = [load(args.src_a, "logperiodic_a0"), load(args.src_b, "logperiodic_b0"),
                load(args.src_b, "logperiodic_b1"), load(args.src_a, "logperiodic_a1")]

    readings = {"a": [], "b": []}
    for i in range(args.pairs):
        seed = args.seed + i
        first = "a" if i % 2 == 0 else "b"
        trees = ({"a": imported[0], "b": imported[1]} if first == "a"
                 else {"b": imported[2], "a": imported[3]})
        series = {s: lp.ingest(inputs.csv_text(inputs.bubble_log_prices(seed)))
                  for s, lp in trees.items()}
        values = {"a": {}, "b": {}}
        measures = [
            ("sweep_s", sum, 1, {s: sweep_units(lp, series[s], seed) for s, lp in trees.items()}),
            ("desk_s", sum, 1, {s: desk_units(lp, series[s], seed) for s, lp in trees.items()}),
            *((f"kernel_us.n{KERNEL_N}.K{rows}", lambda t: 1e6 * statistics.median(t), args.repeat,
               {s: [kernel_unit(lp, series[s], rows, seed)] for s, lp in trees.items()})
              for rows in KERNEL_ROWS),
            ("cmaes_us_per_gen", None, 5, {s: [cmaes_unit(lp, seed)] for s, lp in trees.items()}),
        ]
        for name, reduce, repeat, units in measures:
            times, results = interleave(units, first, repeat)
            if results["a"] != results["b"]:
                print(f"seed {seed}: {name}: the two trees' results differ", file=sys.stderr)
                return 1
            for side in "ab":
                if reduce is None:  # µs per generation, the generations from the search's result
                    values[side][name] = 1e6 * statistics.median(times[side]) / results[side][0][0]
                else:
                    values[side][name] = reduce(times[side])
        for side in "ab":
            readings[side].append(values[side])
        print(f"pair {i + 1} (seed {seed}) b/a: "
              + " ".join(f"{k} {values['b'][k] / values['a'][k]:.3f}" for k in values["a"]),
              file=sys.stderr, flush=True)

    print(f"{'measure':<20} {'a median':>10} {'b median':>10} {'b/a (paired) [q1, q3]':>22} "
          f"{'b wins':>7}")
    for name in readings["a"][0]:
        va = [r[name] for r in readings["a"]]
        vb = [r[name] for r in readings["b"]]
        ratio = spread([y / x for x, y in zip(va, vb)])
        wins = sum(y < x for x, y in zip(va, vb))
        print(f"{name:<20} {statistics.median(va):>10.4g} {statistics.median(vb):>10.4g} "
              f"{ratio['median']:>7.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}] {wins:>4}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
