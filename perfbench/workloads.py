"""Workload loops and per-layer probes.

Every call into the library goes through a public function of one layer
(`scan`, `assess`, `fit`, `qualify`, `cost`, `minimize_box`, `evaluate`,
`ingest`) and, in a traced run, is wrapped in a span. The untraced loops are
what `--trace 0` times; the traced extras (serial replay, probes,
determinism guard) only run with `--trace 1`.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs

# QualificationReport fields, one per filter of the battery.
FILTERS = (
    "m_in_range", "omega_in_range", "tc_in_range", "oscillations_ok",
    "rel_error_ok", "lomb_ok", "ou_ok",
)
THRESHOLD = 0.05          # criterion 9's daily endogenous threshold
PEAK_TOLERANCE = 5        # criterion 9: peak t2 within 5 steps of the bubble end
COST_PROBE_LENGTHS = (30, 120, 340, 650)
COST_PROBE_CALLS = 200
QUALIFY_PROBE_CALLS = 50
EVALUATE_PROBE_CALLS = 500
CMAES_PROBE_RUNS = 3


def t2_range(endpoints: int, before: int, step: int) -> tuple[int, int]:
    """First and last of `endpoints` desk endpoints `step` apart, `before` of them before ANCHOR."""
    first = inputs.ANCHOR - before * step
    return first, first + (endpoints - 1) * step


def another_rep(start: float, reps: int, seconds: float) -> bool:
    """Whether one more repetition ends nearer to `seconds` than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / reps < seconds


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"ERROR in {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


@dataclass
class Bench:
    """Everything one run needs: library, inputs, configs, settings, tracer."""

    lp: object
    workload: str
    series: object
    csv_text: str
    scheme: object
    search: object
    filters: object
    seed: int
    endpoints: int
    endpoints_before: int
    endpoint_step: int
    workers: int
    tracer: object
    checks: Checks = field(default_factory=Checks)

    @property
    def t2_range(self) -> tuple[int, int]:
        return t2_range(self.endpoints, self.endpoints_before, self.endpoint_step)

    @property
    def review(self) -> tuple[int, int]:
        return self.t2_range[0], len(self.series) - 1

    def window(self, length: int):
        return self.lp.Window(inputs.ANCHOR - length + 1, inputs.ANCHOR)

    def seeded(self, t2: int, length: int):
        return self.search.with_seed(self.lp.window_seed(self.seed, t2, length))


# ---------------------------------------------------------------- desk scans


def desk_rep(b: Bench):
    """One scan over the endpoint range plus its assessment, checked."""
    lp, tr = b.lp, b.tracer
    first, last = b.t2_range
    with tr.span("scan"):
        points = lp.scan(b.series, first, last, b.endpoint_step, b.scheme, b.search, b.filters,
                         base_seed=b.seed, workers=b.workers)
    with tr.span("assess"):
        verdict = lp.assess(b.series, points, b.review, THRESHOLD)
    b.checks.check([p.t2 for p in points] == list(range(first, last + 1, b.endpoint_step)),
                   "scan returned the wrong endpoints")
    for p in points:
        b.checks.check(
            p.windows_total == b.scheme.count
            and 0 <= p.windows_qualified_pos + p.windows_qualified_neg <= p.windows_total,
            f"inconsistent counts at t2={p.t2}",
        )
    if b.workload == "desk-bubble":
        b.checks.check(verdict.crash_type is lp.CrashType.ENDOGENOUS,
                       f"bubble classified {verdict.crash_type.value} (peak {verdict.peak_ci})")
        b.checks.check(abs(verdict.peak_ci_t2 - inputs.ANCHOR) <= PEAK_TOLERANCE,
                       f"bubble peak at t2={verdict.peak_ci_t2}, end is {inputs.ANCHOR}")
    else:
        b.checks.check(verdict.crash_type is lp.CrashType.EXOGENOUS,
                       f"null classified {verdict.crash_type.value} (peak {verdict.peak_ci})")
    return points, verdict


def desk_loop(b: Bench, seconds: float) -> dict:
    """Repeat desk_rep for about `seconds`; at least once."""
    per_endpoint, result, reps = [], None, 0
    cpu0, begin = cpu_seconds(), time.perf_counter()
    while reps == 0 or another_rep(begin, reps, seconds):
        reps += 1
        start = time.perf_counter()
        try:
            result = desk_rep(b)
            per_endpoint.append((time.perf_counter() - start) / b.endpoints)
        except Exception as exc:  # a failing rep is counted, the run goes on
            b.checks.error("desk scan", exc)
    return {
        "item_s": per_endpoint,
        "item_cpu_s": (cpu_seconds() - cpu0) / (b.endpoints * max(1, len(per_endpoint))),
        "last": result,  # set whenever item_s is non-empty
    }


# ------------------------------------------------------------- the fit sweep


def _admits_truth(b: Bench, window) -> bool:
    """Whether fit()'s search would accept the generating (tc, m, omega)."""
    lp = b.lp
    tc_lo, tc_hi = b.search.tc_bounds(window)
    if not (tc_lo + lp.calibrate.TC_GUARD <= inputs.TRUTH_TC <= tc_hi
            and b.search.m_min <= inputs.TRUTH_M <= b.search.m_max
            and b.search.omega_min <= inputs.TRUTH_OMEGA <= b.search.omega_max):
        return False
    a, bb, c1, c2 = lp.linear_solve(b.series, window, inputs.TRUTH_TC, inputs.TRUTH_M,
                                    inputs.TRUTH_OMEGA)
    params = lp.LpplsParams(inputs.TRUTH_TC, inputs.TRUTH_M, inputs.TRUTH_OMEGA, a, bb, c1, c2)
    return lp.damping(params) >= b.search.damping_floor


def sweep_reference_costs(b: Bench) -> dict:
    """Profiled cost at the generating point, for each window that admits it."""
    out = {}
    for length in b.scheme.lengths():
        window = b.window(length)
        if _admits_truth(b, window):
            out[length] = b.lp.cost(b.series, window, inputs.TRUTH_TC, inputs.TRUTH_M,
                                    inputs.TRUTH_OMEGA)
    return out


def fit_and_qualify(b: Bench, t2: int, length: int):
    """fit + qualify of one window under its scan seed; (FitResult|None, report|None)."""
    lp, tr = b.lp, b.tracer
    window = lp.Window(t2 - length + 1, t2)
    with tr.span("fit", n=length) as span:
        try:
            result = lp.fit(b.series, window, b.seeded(t2, length))
        except lp.FitFailedError:
            return None, None
        if span is not None:
            span.attrs["evals"] = result.evaluations
    with tr.span("qualify", n=length):
        report = lp.qualify(result, b.series, window, b.filters)
    return result, report


def sweep_cycle(b: Bench, refs: dict, samples: list, outcomes: list) -> None:
    """One closed-loop pass over the sweep lengths, one call at a time."""
    for length in b.scheme.lengths():
        start = time.perf_counter()
        try:
            result, report = fit_and_qualify(b, inputs.ANCHOR, length)
        except Exception as exc:
            b.checks.error(f"fit+qualify n={length}", exc)
            continue
        samples.append(time.perf_counter() - start)
        outcomes.append((inputs.ANCHOR, length, result, report))
        b.checks.check(result is not None, f"fit failed at n={length}")
        if result is not None and length in refs:
            b.checks.check(result.cost <= refs[length],
                           f"n={length}: fit cost {result.cost!r} above truth {refs[length]!r}")


def sweep_loop(b: Bench, seconds: float, refs: dict) -> dict:
    """Whole sweep cycles for about `seconds`, so every length is equally sampled."""
    samples, outcomes, cycles = [], [], 0
    cpu0, begin = cpu_seconds(), time.perf_counter()
    while cycles == 0 or another_rep(begin, cycles, seconds):
        cycles += 1
        sweep_cycle(b, refs, samples, outcomes)
    return {
        "item_s": samples,
        "item_cpu_s": (cpu_seconds() - cpu0) / max(1, len(samples)),
        "outcomes": outcomes[: b.scheme.count],
    }


# ------------------------------------------------------------ traced extras


def replay(b: Bench, t2s) -> tuple[list, float]:
    """Serial fit + qualify of every scan window; (outcomes, serial seconds)."""
    outcomes, serial = [], 0.0
    for t2 in t2s:
        b.tracer.run = f"replay-{t2}"
        for window in b.lp.windows_for(t2, b.scheme):
            start = time.perf_counter()
            result, report = fit_and_qualify(b, t2, window.length)
            serial += time.perf_counter() - start
            outcomes.append((t2, window.length, result, report))
    return outcomes, serial


def counts(lp, outcomes) -> tuple[int, int]:
    qualified = [q.sign for *_, q in outcomes if q is not None and q.qualified]
    return (sum(s is lp.BubbleSign.POSITIVE for s in qualified),
            sum(s is lp.BubbleSign.NEGATIVE for s in qualified))


def fit_layer_metrics(b: Bench, outcomes) -> dict:
    """calibrate / cmaes / qualify outcome metrics over one pass of windows."""
    fits = [r for _, _, r, _ in outcomes if r is not None]
    reports = [q for *_, q in outcomes if q is not None]
    evals = [r.evaluations for r in fits]
    out = {
        "calibrate.evals_per_fit": (statistics.fmean(evals), "count"),
        "calibrate.fit_failed_share": (1.0 - len(fits) / len(outcomes), "ratio"),
        "cmaes.budget_used_share": (
            sum(evals) / (len(outcomes) * b.search.restarts * b.search.max_evaluations), "ratio"),
        "qualify.pass_share": (sum(q.qualified for q in reports) / len(outcomes), "ratio"),
    }
    for name in FILTERS:
        out[f"qualify.reject.{name}"] = (sum(not getattr(q, name) for q in reports), "count")
    for n in (30, 650):
        per_eval = [
            (s.end - s.start) / s.attrs["evals"]
            for s in b.tracer.spans if s.name == "fit" and s.attrs.get("n") == n and "evals" in s.attrs
        ]
        out[f"calibrate.us_per_eval.n{n}"] = (1e6 * statistics.median(per_eval), "us")
    return out


def probes(b: Bench, outcomes) -> dict:
    """Per-call cost of single layers, each timed by its own spans."""
    lp, tr = b.lp, b.tracer
    tr.run = "probe"
    out = {}
    for _ in range(5):
        with tr.span("ingest"):
            lp.ingest(b.csv_text)
    out["series.ingest_ms"] = (1e3 * tr.median("ingest", "probe"), "ms")

    truth = lp.LpplsParams(inputs.TRUTH_TC, inputs.TRUTH_M, inputs.TRUTH_OMEGA, inputs.TRUTH_A,
                           inputs.TRUTH_B, inputs.TRUTH_C1, inputs.TRUTH_C2)
    t650 = np.arange(inputs.ANCHOR - 649, inputs.ANCHOR + 1, dtype=float)
    for _ in range(EVALUATE_PROBE_CALLS):
        with tr.span("evaluate", n=650):
            lp.evaluate(truth, t650)
    out["model.evaluate_us.n650"] = (1e6 * tr.median("evaluate", "probe"), "us")

    for n in COST_PROBE_LENGTHS:
        window = b.window(n)
        tc_lo, tc_hi = b.search.tc_bounds(window)
        point = (0.5 * (tc_lo + tc_hi), 0.5, 8.0)
        for _ in range(COST_PROBE_CALLS):
            with tr.span("cost", n=n):
                lp.cost(b.series, window, *point)
        out[f"calibrate.cost_us.n{n}"] = (1e6 * tr.median("cost", "probe", n=n), "us")

    per_eval = []
    for k in range(CMAES_PROBE_RUNS):
        with tr.span("minimize_box") as span:
            res = lp.cmaes.minimize_box(
                lambda x: float(np.sum((x - 0.3) ** 2)), np.zeros(3), np.ones(3),
                popsize=b.search.population, max_evals=b.search.max_evaluations,
                restarts=b.search.restarts, rng=np.random.default_rng([b.seed, k]),
            )
        per_eval.append((span.end - span.start) / res.evaluations)
    out["cmaes.overhead_us_per_eval"] = (1e6 * statistics.median(per_eval), "us")

    fitted = {n: (t2, r) for t2, n, r, _ in outcomes if r is not None}
    for n in (30, 650):
        t2, result = fitted[n]
        window = lp.Window(t2 - n + 1, t2)
        for _ in range(QUALIFY_PROBE_CALLS):
            with tr.span("qualify-probe", n=n):
                lp.qualify(result, b.series, window, b.filters)
        out[f"qualify.ms.n{n}"] = (1e3 * tr.median("qualify-probe", "probe", n=n), "ms")
    return out


def refit_guard(b: Bench, outcomes) -> int:
    """Fit the shortest window again with the same seed; 1 if the result differs."""
    t2, length, earlier, _ = next(o for o in outcomes if o[1] == b.scheme.min_len)
    b.tracer.run = "determinism"
    again, _ = fit_and_qualify(b, t2, length)
    same = again == earlier
    b.checks.check(same, f"refit of n={length} with the same seed differs")
    return 0 if same else 1


def tail(samples: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples above it, and its value.

    None when that percentile would not lie above the median.
    """
    n = len(samples)
    if n < 21:
        return None
    ordered = sorted(samples)
    pct = math.floor(100 * (n - 10) / n)
    while pct > 50:
        rank = math.ceil(pct / 100 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return pct, ordered[rank - 1]
        pct -= 1
    return None
