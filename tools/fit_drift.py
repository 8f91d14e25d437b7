"""Compare the desk-window fits of two source trees, or of one tree under two host setups.

    python tools/fit_drift.py <src-a> <src-b> [--held-out]
        [--env-a KEY=VALUE]... [--env-b KEY=VALUE]...

<src-a> and <src-b> are directories that hold a `logperiodic` package (a
checkout's `src`). Each tree fits, in its own subprocess and serially, the
windows of the benchmark's desk endpoints: the bubble series at seeds 0-7
at t2 = 659 and 667 (windows 650..30 step 62), and the null series at
seeds 0-5 at t2 = 659 (650..30 step 31), each endpoint under its own
series seed as the scan seed. `--held-out` fits, in their place, 672
windows on seeds the desk set does not use: the bubble series at seeds
8-15 and the null series at seeds 6-13, each at t2 = 655 and 663 (650..30
step 31), so that a constant tuned on the desk windows is checked on
windows it was not tuned on. Each endpoint's windows are fitted as one
lockstep search through `calibrate._fit_windows` with the scan's window
seeds, which gives every window the fit a scan gives it. The series come
from `perfbench/inputs.py`, which does not use the library, read back
through each tree's `ingest`. `--env-a` and `--env-b` (repeatable) set
environment variables in the subprocess of tree a or b only, for example
`OPENBLAS_CORETYPE=Haswell`, so passing one tree twice compares two host
setups.

The report gives the windows compared, every window whose qualification
(or fit success) differs, every endpoint whose (pos, neg) counts differ,
each tree's mean evaluations per fitted window by endpoint group, every
window whose cost rose by more than 1e-9 relative, and the largest
relative cost change over windows both trees fitted. Exit status 0
whether or not anything moved; 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
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


def collect(name: str) -> dict:
    """Every window fit of set `name` under the library on sys.path, as JSON-ready records."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs
    import logperiodic as lp
    from logperiodic.calibrate import _fit_windows

    records = []
    for kind, seeds, endpoints, step in SETS[name]:
        make = inputs.bubble_log_prices if kind == "bubble" else inputs.null_log_prices
        scheme = lp.WindowScheme(650, 30, step)
        for seed in seeds:
            series = lp.ingest(inputs.csv_text(make(seed)))
            for t2 in endpoints:
                windows = lp.windows_for(t2, scheme)
                seeds_of = [lp.window_seed(seed, t2, w.length) for w in windows]
                for w, result in zip(windows, _fit_windows(series, windows, lp.SearchConfig(),
                                                           seeds_of)):
                    record = {"endpoint": [kind, seed, t2], "length": w.length,
                              "cost": float("inf"), "evaluations": None, "class": "failed"}
                    if not isinstance(result, lp.FitFailedError):
                        report = lp.qualify(result, series, w, lp.FilterConfig())
                        record.update(cost=result.cost, evaluations=result.evaluations)
                        record["class"] = report.sign.value if report.qualified else "unqualified"
                    records.append(record)
    return {"library": lp.__file__, "records": records}


def run_tree(src: str, settings: dict, name: str) -> list[dict]:
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", **settings)
    done = subprocess.run([sys.executable, __file__, "--collect", name], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    if Path(out["library"]).resolve().parent != src / "logperiodic":
        raise RuntimeError(f"imported logperiodic from {out['library']}, not {src}")
    return out["records"]


def counts(records) -> dict:
    out = {}
    for r in records:
        pos, neg = out.get(tuple(r["endpoint"]), (0, 0))
        out[tuple(r["endpoint"])] = (pos + (r["class"] == "positive-bubble"),
                                     neg + (r["class"] == "negative-bubble"))
    return out


def report(a: list[dict], b: list[dict]) -> list[str]:
    if [(r["endpoint"], r["length"]) for r in a] != [(r["endpoint"], r["length"]) for r in b]:
        return ["the two trees fitted different windows"]
    lines = [f"windows compared: {len(a)}"]
    flips = [(ra, rb) for ra, rb in zip(a, b) if ra["class"] != rb["class"]]
    lines.append(f"qualification flips: {len(flips)}")
    lines += [f"  {ra['endpoint']} n={ra['length']}: {ra['class']} -> {rb['class']}"
              for ra, rb in flips]
    ca, cb = counts(a), counts(b)
    moved = [e for e in ca if ca[e] != cb[e]]
    lines.append(f"endpoints with changed (pos, neg) counts: {len(moved)} of {len(ca)}")
    lines += [f"  {list(e)}: {ca[e]} -> {cb[e]}" for e in moved]
    # signed relative cost change of every window both trees fitted
    changes = [((rb["cost"] - ra["cost"]) / ra["cost"], ra) for ra, rb in zip(a, b)
               if ra["class"] != "failed" and rb["class"] != "failed" and ra["cost"] > 0.0]
    same = sum(ra["cost"] == rb["cost"] for ra, rb in zip(a, b))
    lines.append(f"bit-equal costs: {same} of {len(a)}")
    lines.append("mean evaluations per fitted window, a -> b:")
    for group in dict.fromkeys((r["endpoint"][0], r["endpoint"][2]) for r in a):
        means = [statistics.fmean(r["evaluations"] for r in tree
                                  if (r["endpoint"][0], r["endpoint"][2]) == group
                                  and r["evaluations"] is not None) for tree in (a, b)]
        lines.append(f"  {group[0]} t2={group[1]}: {means[0]:.0f} -> {means[1]:.0f} "
                     f"({means[1] / means[0]:.3f}x)")
    rose = [(rel, r) for rel, r in changes if rel > 1e-9]
    lines.append(f"costs risen by more than 1e-9 relative: {len(rose)}")
    lines += [f"  {r['endpoint']} n={r['length']}: +{rel:.3g}" for rel, r in rose]
    if changes:
        rel, r = max(changes, key=lambda c: abs(c[0]))
        lines.append(f"largest relative cost change: {rel:+.3g} ({r['endpoint']} n={r['length']})")
    return lines


def setting(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv) -> int:
    if argv[:1] == ["--collect"]:
        json.dump(collect(argv[1]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--held-out", action="store_true",
                        help="fit the 672 held-out windows in place of the 302 desk windows")
    parser.add_argument("--env-a", type=setting, action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--env-b", type=setting, action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    trees = [args.src_a, args.src_b]
    if not all((Path(s) / "logperiodic" / "__init__.py").is_file() for s in trees):
        parser.error("both source arguments must be directories holding a logperiodic package")
    settings = [dict(args.env_a), dict(args.env_b)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(run_tree, trees, settings, ["held-out" if args.held_out else "desk"] * 2)
    print("\n".join(report(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
