"""Run the benchmark on two checkouts in alternating pairs and compare their metrics.

    python tools/bench_pairs.py <checkout-a> <checkout-b> [--workload NAME]... [--pairs N]
        [--seconds S] [--first-seed K] [--trace 0|1] [--label-a TEXT] [--label-b TEXT]
        [--output PATH]

<checkout-a> (the parent) and <checkout-b> (the change) are directories
that each hold `perfbench/run.py` and the `src` it measures. For each
workload (default: those `BENCHMARK.json` in checkout b gates), pair i runs
`perfbench/run.py --workload W --seed K+i --seconds S --trace T` once in
each checkout, one after the other, a first in even pairs and b first in
odd ones, so that a drift of the host over the session falls on both
sides alike. Every run's metrics are kept.

Both sides run in the same bytecode state: each gets its own
PYTHONPYCACHEPREFIX, a fresh directory outside both checkouts, and may
write bytecode there whatever the caller's PYTHONDONTWRITEBYTECODE says.
So a `__pycache__` that one checkout holds and the other lacks is never
read (it would lower that side's `setup_s`), and each side compiles what
it imports, the standard library and numpy too, once, in its first
interpreter, and reads it back in the later ones. The settings record this
as `bytecode`.

For each workload and metric the report prints each side's median and
quartiles (inclusive method) over the pairs, the ratio of the medians,
the number of pairs b wins (a strictly better value, in the direction the
metric's `better` field in b's `BENCHMARK.json` gives, lower when it gives
none), whether b's median beats a's by more than a's interquartile range,
and the median and quartiles of the per-pair ratios b/a. The two runs of
a pair follow each other, so a drift of the host over the run moves
both alike: it widens each side's spread but hardly the ratios'. The runs and the summary are written as JSON to --output (default
BENCH_<label of a>.json in the current directory). A checkout's label
defaults to its short commit when it is the top of a git checkout, else
to its directory name. Exit status 0 whether or not b is better; 1 when a
run fails or reports a failed check; 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def label_of(checkout: Path) -> str:
    """The short commit of a git checkout's top directory, else the directory's name."""
    if (checkout / ".git").exists():
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short=7", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return checkout.name


BYTECODE = "own fresh PYTHONPYCACHEPREFIX per side, outside both checkouts, written"


def side_env(pycache: Path) -> dict:
    """One side's environment: the caller's, reading and writing bytecode under `pycache`."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
             env: dict) -> dict:
    """One perfbench run under `env`: its check counts, metric values and environment record."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, env=env)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "env": env}


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], lower_is_better: dict) -> dict:
    """Per workload and metric: each side's spread, the median ratio, b's wins, the IQR test
    and the spread of the per-pair ratios b/a (None when a value of a is 0)."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        # runs are sorted by seed, so the i-th run of each side is pair i's
        pairs = list(zip(*([r for r in runs if r["workload"] == workload and r["side"] == side]
                           for side in "ab")))
        metrics = {}
        for name in pairs[0][0]["metrics"]:
            lower = lower_is_better.get(name, True)
            va = [a["metrics"][name] for a, _ in pairs]
            vb = [b["metrics"][name] for _, b in pairs]
            sa, sb = spread(va), spread(vb)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
            gap = (sa["median"] - sb["median"]) if lower else (sb["median"] - sa["median"])
            metrics[name] = {
                "better": "lower" if lower else "higher", "a": sa, "b": sb,
                "ratio": sb["median"] / sa["median"] if sa["median"] else None,
                "wins": wins, "pairs": len(pairs), "gap_beyond_a_iqr": gap > sa["q3"] - sa["q1"],
                "pair_ratio": spread([y / x for x, y in zip(va, vb)]) if all(va) else None,
            }
        out[workload] = metrics
    return out


def report(summary: dict) -> list[str]:
    lines = []
    for workload, metrics in summary.items():
        lines.append(f"{workload}:")
        for name, m in metrics.items():
            a, b = m["a"], m["b"]
            ratio = f"{m['ratio']:.3f}x" if m["ratio"] is not None else "-"
            paired = m["pair_ratio"]
            paired = (f"  pairs b/a {paired['median']:.3f} [{paired['q1']:.3f}, {paired['q3']:.3f}]"
                      if paired else "")
            lines.append(
                f"  {name:<12} a {a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}]  "
                f"b {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  {ratio}  "
                f"b wins {m['wins']}/{m['pairs']} ({m['better']} is better)"
                f"{'  beyond a IQR' if m['gap_beyond_a_iqr'] else ''}{paired}")
    return lines


def run_pairs(trees, workloads, envs, args, end_to_end):
    """Every run of every pair, each side under its environment; None once a run fails a check."""
    runs = []
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in ("ab" if i % 2 == 0 else "ba"):
                tree = trees["ab".index(side)]
                run = run_once(tree, workload, seed, args.seconds, args.trace, envs[side])
                runs.append({"workload": workload, "seed": seed, "side": side, **run})
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={run['metrics'][k]:.4g}" for k in end_to_end
                                 if k in run["metrics"]),
                      file=sys.stderr, flush=True)
                if not run["correct"] or run["failed"]:
                    print(f"{tree}: {workload} seed {seed}: {run['failed']} of "
                          f"{run['attempted']} checks failed", file=sys.stderr)
                    return None
    return runs


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--workload", action="append", default=None,
                        help="repeatable; default: the workloads of b's BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label-a", default=None)
    parser.add_argument("--label-b", default=None)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)
    trees = [Path(args.checkout_a).resolve(), Path(args.checkout_b).resolve()]
    if not all((t / "perfbench" / "run.py").is_file() for t in trees):
        parser.error("both checkouts must hold perfbench/run.py")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    declared = json.loads((trees[1] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    lower_is_better = {m["name"]: m.get("better", "lower") == "lower"
                       for m in declared.get("end_to_end", []) + declared.get("per_layer", [])}
    end_to_end = [m["name"] for m in declared.get("end_to_end", [])]
    labels = [args.label_a or label_of(trees[0]), args.label_b or label_of(trees[1])]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as pycache:
        envs = {side: side_env(Path(pycache) / side) for side in "ab"}
        runs = run_pairs(trees, workloads, envs, args, end_to_end)
    if runs is None:
        return 1
    runs.sort(key=lambda r: (workloads.index(r["workload"]), r["seed"], r["side"]))
    summary = summarize(runs, lower_is_better)
    print("\n".join(report(summary)))
    output = Path(args.output or f"BENCH_{labels[0]}.json")
    output.write_text(json.dumps({
        "a": labels[0],
        "b": labels[1],
        "settings": {"workloads": workloads, "pairs": args.pairs, "seconds": args.seconds,
                     "seeds": [args.first_seed, args.first_seed + args.pairs - 1],
                     "trace": args.trace, "bytecode": BYTECODE},
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"written: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
