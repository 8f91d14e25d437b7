"""Compare two source trees: which window fits moved, and what the fits cost in time.

    python tools/tree_ab.py <src-a> <src-b> [--held-out] [--pairs N] [--seed K]
        [--env-a KEY=VALUE]... [--env-b KEY=VALUE]...

<src-a> and <src-b> each hold a `logperiodic` package (a checkout's `src`).
Both are imported into this one process, in the order a, b, b, a, and work
runs in pairs of units, one unit of each tree back to back: even pairs run
a's first copy, then b's first; odd pairs b's second copy, then a's second.
So a drift of the host falls on both sides alike, and neither the order of
the runs nor that of the imports favours a side.

Drift pass. Each tree fits the 302 desk windows (bubble series seeds 0-7 at
t2 = 659 and 667, windows 650..30 step 62; null seeds 0-5 at t2 = 659, step
31) or, with `--held-out`, 672 windows on seeds the desk set does not use
(bubble seeds 8-15 and null seeds 6-13, each at t2 = 655 and 663, step 31),
so that a constant tuned on the desk windows is checked on others. An
endpoint is one pair, even or odd as its series seed: each tree's unit fits
its windows chunk by chunk, as a scan fits them, under the series seed as
the scan seed, and is timed. The report lists
the windows whose qualification or fit success differs, the endpoints whose
(pos, neg) counts differ, the bit-equal costs, each endpoint group's mean
evaluations per window and seconds with the median and quartiles of its
per-endpoint ratios b/a, under it the group's work (the sum of evaluations
x window length, the kernel's work as a count that repeats exactly) and
its cost changes in bands: how many windows' costs rose and how many fell
by more than 1e-9, 1e-6 and 1e-3 relative, each window beyond 1e-9 listed.
Last comes the largest relative cost change. The evaluation and work lines
count every window whose evaluations both trees know, failed fits
included: a failed fit spends its whole budget, and a tree whose
FitFailedError carries no count records None for it.

Timing pairs. Pair i of N (`--pairs`, default 10; 0 runs none) reads series
seed K + i (`--seed`, default 1):
- `sweep_s`: the fit-sweep workload's 11 fits (650..30 step 62 ending at
  the bubble end, each under its scan seed), seconds summed;
- `kernel_us.n340.K7` and `.K19`: one call of the search's objective on K
  rows of a 340-point window, µs, the median of 200 calls;
- `cmaes_us_per_gen`: a five-restart search of a sphere, with a next to
  free objective that rejects (+inf) the points with x0 > 0.8, µs per
  generation, the median of 5 searches.
Per measure the report gives each side's median, the median and quartiles
of the per-pair ratios b/a (as `tools/bench_pairs.py` does), the pairs b
wins (a strictly lower value) and the pairs whose results are equal.

`--env-a` and `--env-b` (repeatable) set environment variables for one
tree, for example `OPENBLAS_CORETYPE=Haswell`, so one tree passed twice
compares two host setups. One interpreter cannot carry two environments:
each tree's drift pass then runs in a subprocess of its own, a's first, and
the timing pairs are skipped.

The series come from `perfbench/inputs.py`, which does not use the library,
read back through each tree's `ingest`. Exit status 0 when the two trees'
window records and every measure's results are equal; 1 when any differs,
after the whole report; 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_pairs import spread

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
import inputs  # noqa: E402

# relative cost changes at which the drift report counts a rise or a fall
BANDS = ("1e-9", "1e-6", "1e-3")
# window sets: (series kind, seeds, endpoints, window step) per group
SETS = {
    "desk": (
        ("bubble", range(8), (659, 667), 62),
        ("null", range(6), (659,), 31),
    ),
    "held-out": (
        ("bubble", range(8, 16), (655, 663), 31),
        ("null", range(6, 14), (655, 663), 31),
    ),
}
SWEEP_LENGTHS = range(650, 29, -62)
KERNEL_N = 340
KERNEL_ROWS = (7, 19)
KERNEL_CALLS = 200


def load(src: str, name: str):
    """The logperiodic package under `src`, imported as module `name`."""
    init = Path(src).resolve() / "logperiodic" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def endpoints(lp, name: str) -> list:
    """(endpoint, series, [(chunk, window seeds)]) of each endpoint of window set `name`."""
    out = []
    for kind, seeds, t2s, step in SETS[name]:
        make = inputs.bubble_log_prices if kind == "bubble" else inputs.null_log_prices
        scheme = lp.WindowScheme(650, 30, step)
        for seed in seeds:
            series = lp.ingest(inputs.csv_text(make(seed)))
            for t2 in t2s:
                chunks = [(chunk, [lp.window_seed(seed, t2, w.length) for w in chunk])
                          for chunk in lp.indicator._chunks(lp.windows_for(t2, scheme))]
                out.append(([kind, seed, t2], series, chunks))
    return out


def fit_endpoint(lp, endpoint) -> dict:
    """One endpoint's fits, chunk by chunk as a scan makes them: their seconds and window records."""
    key, series, chunks = endpoint
    start = time.perf_counter()
    results = [r for chunk, seeds in chunks
               for r in lp.calibrate._fit_windows(series, chunk, lp.SearchConfig(), seeds)]
    seconds = time.perf_counter() - start
    records = []
    for window, result in zip((w for chunk, _ in chunks for w in chunk), results):
        # None from a tree whose FitFailedError does not carry its count
        record = {"length": window.length, "cost": float("inf"),
                  "evaluations": getattr(result, "evaluations", None), "class": "failed"}
        if not isinstance(result, lp.FitFailedError):
            report = lp.qualify(result, series, window, lp.FilterConfig())
            record.update({"cost": result.cost, "evaluations": result.evaluations,
                           "class": report.sign.value if report.qualified else "unqualified"})
        records.append(record)
    return {"endpoint": key, "seconds": seconds, "windows": records}


def drift_pass(copies, name: str) -> tuple[list, list]:
    """Each side's endpoint records of window set `name`, the two sides of an endpoint back to back."""
    units = [{side: endpoints(lp, name) for side, lp in trees.items()} for trees in copies]
    out = {"a": [], "b": []}
    for i, ((_, seed, _), _, _) in enumerate(units[0]["a"]):
        # by the series seed, so that each endpoint group runs both orders alike
        for side, lp in copies[seed % 2].items():
            out[side].append(fit_endpoint(lp, units[seed % 2][side][i]))
    return out["a"], out["b"]


def drift_in_subprocess(src: str, settings: dict, name: str) -> list:
    """The endpoint records of window set `name` from tree `src`, fitted under environment `settings`."""
    done = subprocess.run([sys.executable, __file__, "--collect", src, name],
                          env=dict(os.environ, **settings), stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout)


def counts(records) -> dict:
    return {tuple(e["endpoint"]): (sum(w["class"] == "positive-bubble" for w in e["windows"]),
                                   sum(w["class"] == "negative-bubble" for w in e["windows"]))
            for e in records}


def report(a: list, b: list) -> list[str]:
    """The drift report of two trees' endpoint records."""
    if ([(e["endpoint"], [w["length"] for w in e["windows"]]) for e in a]
            != [(e["endpoint"], [w["length"] for w in e["windows"]]) for e in b]):
        return ["the two trees fitted different windows"]
    pairs = [(dict(wa, endpoint=ea["endpoint"]), wb)
             for ea, eb in zip(a, b) for wa, wb in zip(ea["windows"], eb["windows"])]
    lines = [f"windows compared: {len(pairs)}"]
    flips = [(ra, rb) for ra, rb in pairs if ra["class"] != rb["class"]]
    lines.append(f"qualification flips: {len(flips)}")
    lines += [f"  {ra['endpoint']} n={ra['length']}: {ra['class']} -> {rb['class']}"
              for ra, rb in flips]
    ca, cb = counts(a), counts(b)
    moved = [e for e in ca if ca[e] != cb[e]]
    lines.append(f"endpoints with changed (pos, neg) counts: {len(moved)} of {len(ca)}")
    lines += [f"  {list(e)}: {ca[e]} -> {cb[e]}" for e in moved]
    # signed relative cost change of every window both trees fitted
    changes = [((rb["cost"] - ra["cost"]) / ra["cost"], ra) for ra, rb in pairs
               if ra["class"] != "failed" and rb["class"] != "failed" and ra["cost"] > 0.0]
    same = sum(ra["cost"] == rb["cost"] for ra, rb in pairs)
    lines.append(f"bit-equal costs: {same} of {len(pairs)}")
    lines.append("per endpoint group, a -> b: mean evaluations per window; seconds, "
                 "and the per-endpoint b/a [q1, q3]:")
    groups = {}
    for ea, eb in zip(a, b):
        groups.setdefault((ea["endpoint"][0], ea["endpoint"][2]), []).append((ea, eb))
    for (kind, t2), group in groups.items():
        # the windows whose evaluations both trees know
        known = [(wa, wb) for ea, eb in group for wa, wb in zip(ea["windows"], eb["windows"])
                 if wa["evaluations"] is not None and wb["evaluations"] is not None]
        evals = [statistics.fmean(w["evaluations"] for w in side) for side in zip(*known)]
        work = [sum(w["evaluations"] * w["length"] for w in side) for side in zip(*known)]
        seconds = [sum(e["seconds"] for e in side) for side in zip(*group)]
        ratio = spread([eb["seconds"] / ea["seconds"] for ea, eb in group])
        lines.append(f"  {kind} t2={t2}: {evals[0]:.0f} -> {evals[1]:.0f} "
                     f"({evals[1] / evals[0]:.3f}x); {seconds[0]:.3f} -> {seconds[1]:.3f} s, "
                     f"{ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]")
        lines.append(f"    work, evaluations x window length: {work[0]} -> {work[1]} "
                     f"({work[1] / work[0]:.3f}x)")
        moved = [(rel, r) for rel, r in changes
                 if (r["endpoint"][0], r["endpoint"][2]) == (kind, t2) and abs(rel) > float(BANDS[0])]
        lines.append("    costs risen / fallen, relative: " + ", ".join(
            f"> {band} {sum(rel > float(band) for rel, _ in moved)} / "
            f"{sum(rel < -float(band) for rel, _ in moved)}" for band in BANDS))
        lines += [f"      {r['endpoint']} n={r['length']}: {rel:+.3g}" for rel, r in moved]
    if changes:
        rel, r = max(changes, key=lambda c: abs(c[0]))
        lines.append(f"largest relative cost change: {rel:+.3g} ({r['endpoint']} n={r['length']})")
    return lines


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
    return [unit(length) for length in SWEEP_LENGTHS]


def kernel_unit(lp, series, rows: int, seed: int):
    """One objective call on `rows` rows of a KERNEL_N-point window, as the search makes it."""
    window = lp.Window(inputs.ANCHOR - KERNEL_N + 1, inputs.ANCHOR)
    cfg = lp.SearchConfig()
    tc_lo, tc_hi = cfg.tc_bounds(window)
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(tc_lo + lp.calibrate.TC_GUARD, tc_hi, rows),
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


def interleave(units: dict, repeat: int) -> tuple[dict, dict]:
    """Run each side's i-th unit back to back, in the dict's order, `repeat` times over.

    Returns each side's list of per-unit seconds (unit by unit, repeats in turn) and the
    results of its first pass.
    """
    times, results = {s: [] for s in units}, {s: [] for s in units}
    for r in range(repeat):
        for pair in zip(*units.values()):
            for side, unit in zip(units, pair):
                start = time.perf_counter()
                out = unit()
                times[side].append(time.perf_counter() - start)
                if r == 0:
                    results[side].append(out)
    return times, results


def timing_pairs(copies, pairs: int, first_seed: int) -> tuple[dict, list]:
    """Each side's readings per pair, and the (seed, measure) of every pair whose results differ."""
    readings, differ = {"a": [], "b": []}, []
    for i in range(pairs):
        seed, trees = first_seed + i, copies[i % 2]
        series = {s: lp.ingest(inputs.csv_text(inputs.bubble_log_prices(seed)))
                  for s, lp in trees.items()}
        values = {"a": {}, "b": {}}
        # (name, reading of a side's unit times and results, repeats, units)
        measures = [
            ("sweep_s", lambda t, _: sum(t), 1,
             {s: sweep_units(lp, series[s], seed) for s, lp in trees.items()}),
            *((f"kernel_us.n{KERNEL_N}.K{rows}", lambda t, _: 1e6 * statistics.median(t),
               KERNEL_CALLS, {s: [kernel_unit(lp, series[s], rows, seed)] for s, lp in trees.items()})
              for rows in KERNEL_ROWS),
            # the generations come from the search's result
            ("cmaes_us_per_gen", lambda t, r: 1e6 * statistics.median(t) / r[0][0], 5,
             {s: [cmaes_unit(lp, seed)] for s, lp in trees.items()}),
        ]
        for name, reading, repeat, units in measures:
            times, results = interleave(units, repeat)
            if results["a"] != results["b"]:
                differ.append((seed, name))
            for side in "ab":
                values[side][name] = reading(times[side], results[side])
        for side in "ab":
            readings[side].append(values[side])
        print(f"pair {i + 1} (seed {seed}) b/a: "
              + " ".join(f"{k} {values['b'][k] / values['a'][k]:.3f}" for k in values["a"]),
              file=sys.stderr, flush=True)
    return readings, differ


def timing_report(readings: dict, differ: list) -> list[str]:
    pairs = len(readings["a"])
    lines = [f"{'measure':<20} {'a median':>10} {'b median':>10} {'b/a (paired) [q1, q3]':>22} "
             f"{'b wins':>7} {'equal':>6}"]
    for name in readings["a"][0]:
        va = [r[name] for r in readings["a"]]
        vb = [r[name] for r in readings["b"]]
        ratio = spread([y / x for x, y in zip(va, vb)])
        wins = sum(y < x for x, y in zip(va, vb))
        equal = pairs - sum(m == name for _, m in differ)
        lines.append(f"{name:<20} {statistics.median(va):>10.4g} {statistics.median(vb):>10.4g} "
                     f"{ratio['median']:>7.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}] "
                     f"{wins:>4}/{pairs} {equal:>3}/{pairs}")
    lines += [f"seed {seed}: {name}: the two trees' results differ" for seed, name in differ]
    return lines


def exit_status(a: list, b: list, differ: list) -> int:
    """0 when the two trees' window records and every measure's results are equal, else 1.

    An evaluation count that one tree does not know (None) is left out on both sides.
    """
    def known(w, other):
        return {k: v for k, v in w.items()
                if k != "evaluations" or None not in (v, other["evaluations"])}
    same = len(a) == len(b) and all(
        ea["endpoint"] == eb["endpoint"] and len(ea["windows"]) == len(eb["windows"])
        and all(known(wa, wb) == known(wb, wa) for wa, wb in zip(ea["windows"], eb["windows"]))
        for ea, eb in zip(a, b))
    return int(not same or bool(differ))


def setting(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv) -> int:
    if argv[:1] == ["--collect"]:  # one tree's drift pass, in the subprocess of a host setup
        lp = load(argv[1], "logperiodic")
        json.dump([fit_endpoint(lp, e) for e in endpoints(lp, argv[2])], sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--held-out", action="store_true",
                        help="fit the 672 held-out windows in place of the 302 desk windows")
    parser.add_argument("--pairs", type=int, default=10, help="timing pairs; 0 runs none")
    parser.add_argument("--seed", type=int, default=1, help="series seed of the first timing pair")
    parser.add_argument("--env-a", type=setting, action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--env-b", type=setting, action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    trees = (args.src_a, args.src_b)
    if not all((Path(s) / "logperiodic" / "__init__.py").is_file() for s in trees):
        parser.error("both source arguments must be directories holding a logperiodic package")
    if args.pairs < 0:
        parser.error("--pairs must be at least 0")
    name = "held-out" if args.held_out else "desk"
    settings = (dict(args.env_a), dict(args.env_b))
    differ = []
    if any(settings):
        a, b = [drift_in_subprocess(src, env, name) for src, env in zip(trees, settings)]
        print("\n".join(report(a, b)), flush=True)
        if args.pairs:
            print("timing pairs skipped: one interpreter cannot carry two environments")
    else:
        # Each tree is imported twice, in the order a, b, b, a: the copy imported
        # later ran the same search up to 3% faster here, so the pairs alternate
        # between a's first copy against b's first and b's second against a's.
        a0, b0 = load(args.src_a, "logperiodic_a0"), load(args.src_b, "logperiodic_b0")
        b1, a1 = load(args.src_b, "logperiodic_b1"), load(args.src_a, "logperiodic_a1")
        copies = ({"a": a0, "b": b0}, {"b": b1, "a": a1})
        a, b = drift_pass(copies, name)
        print("\n".join(report(a, b)), flush=True)
        if args.pairs:
            readings, differ = timing_pairs(copies, args.pairs, args.seed)
            print("\n".join(timing_report(readings, differ)))
    return exit_status(a, b, differ)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
