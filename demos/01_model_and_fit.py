"""Walk through the core model and a single-window calibration.

Generates a noiseless super-exponential trajectory from known parameters,
then recovers them: the linear four (A, B, C1, C2) by the analytic solve
and the nonlinear three (tc, m, omega) by the CMA-ES search.

Run: python demos/01_model_and_fit.py
"""

import numpy as np

from logperiodic import (
    LpplsParams,
    SearchConfig,
    SynthSpec,
    Window,
    damping,
    evaluate,
    fit,
    generate,
    linear_solve,
    phase_amplitude,
)

# A positive bubble: B < 0 gives super-exponential growth toward tc.
# The oscillation amplitude is sized so the damping ratio stays >= 1,
# i.e. the implied crash hazard rate is non-negative everywhere.
truth = LpplsParams(tc=219.0, m=0.5, omega=10.0, A=8.0, B=-0.5, C1=0.0135, C2=0.018)

print("ground truth:", truth)
print(f"damping m|B|/(omega*C) = {damping(truth):.3f}  (>= 1 keeps hazard non-negative)")
c, phi = phase_amplitude(truth)
print(f"oscillation amplitude C = {c:.4f}, phase = {phi:.4f} rad")

print("\nlog price at a few trading steps:")
for t in (0.0, 100.0, 180.0, 199.0):
    print(f"  t = {t:5.0f}: ln p = {evaluate(truth, t):.4f}")

series = generate(SynthSpec(params=truth, n=200, noise_sigma=0.0))
window = Window(0, 199)

print("\nanalytic linear solve at the true (tc, m, omega):")
a, b, c1, c2 = linear_solve(series, window, truth.tc, truth.m, truth.omega)
print(f"  A  = {a:.10f}   (true {truth.A})")
print(f"  B  = {b:.10f}   (true {truth.B})")
print(f"  C1 = {c1:.10f}   (true {truth.C1})")
print(f"  C2 = {c2:.10f}   (true {truth.C2})")

print("\nfull nonlinear calibration (seeded, deterministic):")
result = fit(series, window, SearchConfig(seed=42))
p = result.params
print(f"  tc    = {p.tc:10.4f}   (true {truth.tc})")
print(f"  m     = {p.m:10.4f}   (true {truth.m})")
print(f"  omega = {p.omega:10.4f}   (true {truth.omega})")
print(f"  cost  = {result.cost:.3e} over {window.length} points, {result.evaluations} evaluations")
