"""Desk-scan benchmark for logperiodic: end-to-end latency plus per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload desk-bubble --seed 1 --seconds 30 --trace 0

The last stdout line is the JSON result: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. perfbench/README.md defines the workloads
and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from bootstrap import load  # noqa: E402
from tracing import Tracer, span_cost  # noqa: E402

WORKLOADS = ("desk-bubble", "desk-null", "fit-sweep")
# The null keeps 21 windows (650/30/31), so one stray qualifying window stays
# under the 5% endogenous threshold, as it does with the full 125-window
# scheme; with 6 windows it alone reads 1/6 and flips the null. The bubble
# spends its budget on a second endpoint instead, 8 steps after the bubble
# end, so a peak there falls outside the 5-step tolerance.
DEFAULT_STEP = {"desk-bubble": 62, "desk-null": 31, "fit-sweep": 62}
# (endpoints, endpoints before the bubble end, steps between endpoints)
DEFAULT_ENDPOINTS = {"desk-bubble": (2, 0, 8), "desk-null": (1, 0, 1), "fit-sweep": (1, 0, 1)}
SETUP_REPEATS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; whole repetitions, as many as end nearest to it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--endpoints", type=int, default=None, help="desk endpoints (max 20)")
    p.add_argument("--endpoints-before", type=int, default=None,
                   help="how many of them lie before the bubble end")
    p.add_argument("--endpoint-step", type=int, default=None,
                   help="steps between desk endpoints")
    p.add_argument("--window-step", type=int, default=None,
                   help="window scheme step over 650..30; must divide 620")
    args = p.parse_args(argv)
    for name, default in zip(("endpoints", "endpoints_before", "endpoint_step"),
                             DEFAULT_ENDPOINTS[args.workload]):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.window_step is None:
        args.window_step = DEFAULT_STEP[args.workload]
    if args.window_step < 1 or 620 % args.window_step:
        p.error("--window-step must divide 620 (the 650..30 range)")
    if not 1 <= args.endpoints <= 20 or args.endpoint_step < 1:
        p.error("--endpoints must lie in 1..20 and --endpoint-step be positive")
    if not 0 <= args.endpoints_before < args.endpoints:
        p.error("--endpoints-before must lie in 0..endpoints-1")
    first, last = wl.t2_range(args.endpoints, args.endpoints_before, args.endpoint_step)
    if first < 649 or last >= inputs.SERIES_LEN:
        p.error(f"endpoints {first}..{last} leave the series or lack 650 points of history")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(load_before) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def setup_samples(csv_path: Path, step: int) -> list[float]:
    """Time the set-up step in fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "bootstrap.py"), str(SRC), str(csv_path), str(step)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def desk_traced(b: wl.Bench, loop: dict):
    """Replay the scan windows serially; check the counts against the parallel scan."""
    points, verdict = loop["last"]
    first, last = b.t2_range
    outcomes, serial = wl.replay(b, range(first, last + 1, b.endpoint_step))
    for p in points:
        b.checks.check(
            wl.counts(b.lp, [o for o in outcomes if o[0] == p.t2])
            == (p.windows_qualified_pos, p.windows_qualified_neg),
            f"serial replay counts differ from scan at t2={p.t2}",
        )
    return outcomes, points, verdict, serial / b.endpoints, "traced"


def sweep_traced(b: wl.Bench, loop: dict):
    """Scan the sweep's windows once with workers=1; its counts must match the sweep's."""
    lp, tr = b.lp, b.tracer
    outcomes = loop["outcomes"]
    tr.run = "scan"
    with tr.span("scan"):
        points = lp.scan(b.series, inputs.ANCHOR, inputs.ANCHOR, 1, b.scheme, b.search,
                         b.filters, base_seed=b.seed, workers=1)
    with tr.span("assess"):
        verdict = lp.assess(b.series, points, b.review, wl.THRESHOLD)
    b.checks.check(
        wl.counts(lp, outcomes) == (points[0].windows_qualified_pos, points[0].windows_qualified_neg),
        "sweep counts differ from a serial scan of the same windows",
    )
    return outcomes, points, verdict, sum(loop["item_s"][: b.scheme.count]), "scan"


def indicator_metrics(b: wl.Bench, points, verdict, serial_work_s: float, run: str) -> dict:
    scan_s = b.tracer.median("scan", run) / b.endpoints
    return {
        "indicator.scan_s": (scan_s, "s"),
        "indicator.serial_work_s": (serial_work_s, "s"),
        "indicator.parallel_efficiency": (serial_work_s / (b.workers * scan_s), "ratio"),
        "indicator.pos_count": (sum(p.windows_qualified_pos for p in points), "count"),
        "indicator.neg_count": (sum(p.windows_qualified_neg for p in points), "count"),
        "classify.assess_ms": (1e3 * b.tracer.median("assess", run), "ms"),
        "classify.peak_ci": (float(verdict.peak_ci), "ratio"),
        "classify.peak_offset": (abs(verdict.peak_ci_t2 - inputs.ANCHOR), "steps"),
    }


def headline(args, b: wl.Bench, loop: dict) -> str:
    sc = b.scheme
    shape = f"{sc.count} windows ({sc.max_len}/{sc.min_len}/{sc.step})"
    if args.workload == "fit-sweep":
        what = f"{shape} per pass, {len(loop['item_s'])} fit+qualify samples, 1 process"
    else:
        what = (f"{b.endpoints} endpoints (step {b.endpoint_step}) x {shape}, "
                f"workers={b.workers}, {len(loop['item_s'])} reps")
    return f"{args.workload} seed={args.seed} trace={args.trace}: {what}"


def e2e_lines(sweep: bool, e2e: dict, loop: dict, setup: list) -> list[str]:
    """The end-to-end figures under their per-workload names (JSON name in brackets)."""
    name = "fit_s" if sweep else "endpoint_s"
    out = [f"{name + ('.p50' if sweep else ''):<16} {e2e['item_s'][0]:.4f} s   (item_s)"]
    if sweep:
        n, tail = len(loop["item_s"]), wl.tail(loop["item_s"])
        out.append(f"{'fit_s.p' + str(tail[0]):<16} {tail[1]:.4f} s   ({n} samples, >=10 beyond)"
                   if tail else f"fit_s.tail       n/a ({n} samples, need 21)")
    out += [
        f"{name.replace('_s', '_cpu_s'):<16} {e2e['item_cpu_s'][0]:.4f} s   (item_cpu_s)",
        f"{'setup_s':<16} {e2e['setup_s'][0]:.4f} s   (median of {len(setup)})",
    ]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = list(os.getloadavg())
    if not (SRC / "logperiodic" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'logperiodic'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    make = inputs.null_log_prices if args.workload == "desk-null" else inputs.bubble_log_prices
    csv_path = OUT / f"{tag}.csv"
    csv_path.write_text(inputs.csv_text(make(args.seed)), encoding="utf-8")

    lp, series, text, (scheme, search, filters), _ = load(str(SRC), str(csv_path), args.window_step)
    if Path(lp.__file__).resolve().parent != SRC / "logperiodic":
        print(f"perfbench: imported logperiodic from {lp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_samples(csv_path, args.window_step)

    sweep = args.workload == "fit-sweep"
    b = wl.Bench(lp, args.workload, series, text, scheme, search, filters, args.seed,
                 *((1, 0, 1) if sweep else (args.endpoints, args.endpoints_before,
                                            args.endpoint_step)),
                 1 if sweep else len(os.sched_getaffinity(0)), Tracer(bool(args.trace)))
    b.tracer.run = "traced"
    refs = wl.sweep_reference_costs(b) if sweep else {}
    loop = wl.sweep_loop(b, args.seconds, refs) if sweep else wl.desk_loop(b, args.seconds)
    loop_spans = len(b.tracer.spans)
    checks = b.checks
    lines = [headline(args, b, loop)]
    if not loop["item_s"]:
        checks.check(False, "no repetition completed")
        report = {}
    elif args.trace:
        outcomes, points, verdict, serial_work_s, run = (
            sweep_traced(b, loop) if sweep else desk_traced(b, loop))
        mismatches = wl.refit_guard(b, outcomes)
        report = {
            **indicator_metrics(b, points, verdict, serial_work_s, run),
            **wl.fit_layer_metrics(b, outcomes),
            **wl.probes(b, outcomes),
            "trace.overhead_s": (loop_spans / len(loop["item_s"]) * span_cost(), "s"),
            "trace.determinism_mismatches": (mismatches, "count"),
        }
        b.tracer.write(OUT / f"{tag}.spans.jsonl")
        lines += [f"{name:<36} {value:.6g} {u}" for name, (value, u) in report.items()]
    else:
        report = {
            "item_s": (statistics.median(loop["item_s"]), "s"),
            "item_cpu_s": (loop["item_cpu_s"], "s"),
            "setup_s": (statistics.median(setup), "s"),
        }
        lines += e2e_lines(sweep, report, loop, setup)

    lines.append(f"{'fail_share':<16} {checks.failed / max(1, checks.attempted):.4f}   "
                 f"({checks.failed} of {checks.attempted} checks)")
    env = environment(load_before)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in report.items()},
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "samples": loop["item_s"],
                    "setup_samples": setup, **result}, indent=1),
        encoding="utf-8",
    )
    print("\n".join(lines))
    print("env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0 if loop["item_s"] else 1


if __name__ == "__main__":
    sys.exit(main())
