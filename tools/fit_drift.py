"""Compare the desk-window fits of two source trees.

    python tools/fit_drift.py <src-a> <src-b>

<src-a> and <src-b> are directories that hold a `logperiodic` package (a
checkout's `src`). Each tree fits, in its own subprocess and serially, the
windows of the benchmark's desk endpoints: the bubble series at seeds 0-7
at t2 = 659 and 667 (windows 650..30 step 62), and the null series at
seeds 0-5 at t2 = 659 (650..30 step 31), each endpoint under its own
series seed as the scan seed. The series come from `perfbench/inputs.py`,
which does not use the library, read back through each tree's `ingest`.

The report gives the windows compared, every window whose qualification
(or fit success) differs, every endpoint whose (pos, neg) counts differ,
and the largest relative cost change over windows both trees fitted. Exit
status 0 whether or not anything moved; 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# (series kind, seeds, endpoints, window step)
DESK = (
    ("bubble", range(8), (659, 667), 62),
    ("null", range(6), (659,), 31),
)


def collect() -> dict:
    """Every desk window's fit under the library on sys.path, as JSON-ready records."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import inputs
    import logperiodic as lp

    records = []
    for kind, seeds, endpoints, step in DESK:
        make = inputs.bubble_log_prices if kind == "bubble" else inputs.null_log_prices
        scheme = lp.WindowScheme(650, 30, step)
        for seed in seeds:
            series = lp.ingest(inputs.csv_text(make(seed)))
            for t2 in endpoints:
                point = lp.confidence_at(series, t2, scheme, lp.SearchConfig(), lp.FilterConfig(),
                                         base_seed=seed, workers=1, keep_diagnostics=True)
                for o in point.diagnostics:
                    report = o.report
                    records.append({
                        "endpoint": [kind, seed, t2], "length": o.window.length, "cost": o.cost,
                        "class": ("failed" if report is None else
                                  report.sign.value if report.qualified else "unqualified"),
                    })
    return {"library": lp.__file__, "records": records}


def run_tree(src: str) -> list[dict]:
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--collect"], env=env, capture_output=True,
                          text=True, check=True)
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
    changes = [(abs(rb["cost"] - ra["cost"]) / ra["cost"], ra) for ra, rb in zip(a, b)
               if ra["class"] != "failed" and rb["class"] != "failed" and ra["cost"] > 0.0]
    same = sum(ra["cost"] == rb["cost"] for ra, rb in zip(a, b))
    lines.append(f"bit-equal costs: {same} of {len(a)}")
    if changes:
        rel, r = max(changes, key=lambda c: c[0])
        lines.append(f"largest relative cost change: {rel:.3g} ({r['endpoint']} n={r['length']})")
    return lines


def main(argv) -> int:
    if argv == ["--collect"]:
        json.dump(collect(), sys.stdout)
        return 0
    if len(argv) != 2 or not all((Path(s) / "logperiodic" / "__init__.py").is_file() for s in argv):
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        print("both arguments must be directories holding a logperiodic package", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        a, b = pool.map(run_tree, argv)
    print("\n".join(report(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
