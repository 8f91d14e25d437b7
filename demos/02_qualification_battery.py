"""Inspect the seven-condition filter battery on a calibrated window.

A fit only counts toward the confidence indicator if every condition
holds: tightened parameter ranges, enough oscillations in the window,
a close price fit, significant log-periodicity of the detrended residual
(Lomb periodogram), and mean-reverting residuals (AR(1) stationarity).

Run: python demos/02_qualification_battery.py
"""

from logperiodic import (
    FilterConfig,
    LpplsParams,
    SearchConfig,
    SynthSpec,
    Window,
    detrended_residual,
    fit,
    generate,
    lomb_test,
    qualify,
)

# Mean-reverting (AR(1)) noise on top of the bubble: the same residual
# structure the battery's Ornstein-Uhlenbeck condition expects.
truth = LpplsParams(tc=430.0, m=0.5, omega=8.0, A=8.0, B=-0.8, C1=0.027, C2=0.036)
series = generate(SynthSpec(params=truth, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))

window = Window(320, 419)
result = fit(series, window, SearchConfig(seed=0))
report = qualify(result, series, window, FilterConfig())

print(f"window [{window.t1}, {window.t2}], cost {result.cost:.3e}")
p = result.params
print(f"fitted: tc={p.tc:.2f} m={p.m:.3f} omega={p.omega:.3f} B={p.B:.4f}")

print("\ncondition                     ok    metric")
print(f"m in [0.01, 0.99]            {report.m_in_range!s:5}  m = {p.m:.3f}")
print(f"omega in [2, 25]             {report.omega_in_range!s:5}  omega = {p.omega:.3f}")
print(f"tc in [t2, t2+(t2-t1)/5]     {report.tc_in_range!s:5}  tc - t2 = {p.tc - window.t2:.2f}")
print(f"oscillations >= 2.5          {report.oscillations_ok!s:5}  count = {report.oscillation_count:.2f}")
print(f"max rel price error <= 0.20  {report.rel_error_ok!s:5}  error = {report.max_relative_error:.4f}")
print(f"Lomb false alarm <= 0.05     {report.lomb_ok!s:5}  p = {report.lomb_false_alarm:.2e}")
print(f"AR(1) mean reversion         {report.ou_ok!s:5}  phi = {report.ar1_coefficient:.3f}")
print(f"\nqualified: {report.qualified}   sign: {report.sign.value}")

# The Lomb condition works on the detrended residual: after stripping the
# power-law trend, genuine log-periodicity is a pure sinusoid in ln(tc-t).
x, r = detrended_residual(series, window, p)
peak = lomb_test((x, r), 0.05)
print(f"\ndetrended residual: {len(r)} points over x in [{x.min():.2f}, {x.max():.2f}]")
print(f"periodogram peak power {peak.peak_power:.1f} at angular frequency {peak.peak_frequency:.2f}"
      f" (fitted omega {p.omega:.2f})")
