"""Scan the confidence indicator across an implanted bubble's end.

The series is a bubble through index 419 followed by a crash. The
positive indicator (fraction of nested windows whose fits qualify)
rises into the bubble's final days and collapses once post-crash data
enters the windows; its peak marks the regime change.

Run: python demos/03_confidence_scan.py   (about half a minute)
"""

import numpy as np

from logperiodic import (
    LpplsParams,
    PriceSeries,
    SearchConfig,
    SynthSpec,
    WindowScheme,
    generate,
    scan,
)

truth = LpplsParams(tc=430.0, m=0.5, omega=8.0, A=8.0, B=-0.8, C1=0.027, C2=0.036)
bubble = generate(SynthSpec(params=truth, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
rng = np.random.default_rng(99)
post_crash = bubble.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(60))
series = PriceSeries(np.exp(np.concatenate([bubble.log_prices, post_crash])), None, 1)
print(f"series: {len(series)} points, bubble ends at index 419, crash follows")

# A reduced window scheme keeps the demo quick; the reference setup is
# WindowScheme(650, 30, 5) with 125 windows per endpoint.
scheme = WindowScheme(max_len=120, min_len=40, step=20)
cfg = SearchConfig(max_evaluations=1200, restarts=3)

points = scan(series, 395, 445, 5, scheme, cfg, base_seed=42, workers=2)

print(f"\n{scheme.count} windows per endpoint; positive confidence indicator:")
for pt in points:
    bar = "#" * round(40 * pt.positive_ci)
    print(f"  t2={pt.t2}  {pt.windows_qualified_pos:2d}/{pt.windows_total}  {pt.positive_ci:5.2f}  {bar}")

best = max(points, key=lambda p: (p.positive_ci, -p.t2))
print(f"\npeak positive CI {best.positive_ci:.2f} at t2 = {best.t2} "
      f"({best.t2 - 419:+d} steps from the implanted bubble end)")
