"""The benchmark's set-up step: import the library, ingest the CSV, build configs.

`python3 perfbench/bootstrap.py <src-dir> <csv> <window-step>` runs the
step in a fresh interpreter and prints its duration in seconds, which is
how `setup_s` is sampled (an import is only cold in a new process).
"""

from __future__ import annotations

import sys
import time


def load(src_dir: str, csv_path: str, window_step: int):
    """Return (logperiodic module, series, csv text, configs, seconds taken)."""
    start = time.perf_counter()
    if sys.path[0] != src_dir:
        sys.path.insert(0, src_dir)
    import logperiodic as lp

    with open(csv_path, encoding="utf-8") as handle:
        text = handle.read()
    series = lp.ingest(text)
    configs = (
        lp.WindowScheme(650, 30, window_step),
        lp.SearchConfig(),
        lp.FilterConfig(),
    )
    return lp, series, text, configs, time.perf_counter() - start


if __name__ == "__main__":
    print(repr(load(sys.argv[1], sys.argv[2], int(sys.argv[3]))[-1]))
