import numpy as np
import pytest

from logperiodic import LpplsParams, SearchConfig, SynthSpec, WindowScheme, generate


def bubble_params(tc, m, omega, A=8.0, B=-0.5, cfrac=0.9):
    """Ground truth with oscillation amplitude C = cfrac * m|B|/omega.

    cfrac < 1 keeps the hazard-rate condition (damping >= 1) satisfied at
    the truth, so the default search box contains the generating point.
    """
    c = cfrac * m * abs(B) / omega
    return LpplsParams(tc=tc, m=m, omega=omega, A=A, B=B, C1=0.6 * c, C2=0.8 * c)


# Reduced scheme and budget for pipeline-level tests; the full 650/30/5
# scheme is exercised where the window arithmetic itself is under test.
SMALL_SCHEME = WindowScheme(max_len=120, min_len=40, step=20)
FAST_SEARCH = SearchConfig(max_evaluations=1200, restarts=3)


@pytest.fixture(scope="session")
def strong_bubble():
    """420 points of a pronounced positive bubble with mean-reverting noise."""
    params = bubble_params(430.0, 0.5, 8.0, A=8.0, B=-0.8)
    series = generate(
        SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4)
    )
    return params, series


@pytest.fixture(scope="session")
def exact_bubble():
    """Noiseless 200-point trajectory; tc sits 20 steps past the end."""
    params = bubble_params(219.0, 0.5, 10.0)
    return params, generate(SynthSpec(params=params, n=200, noise_sigma=0.0, seed=3))


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool started, in order; the pools map in this process.

    Replaces concurrent.futures.ProcessPoolExecutor, so no process is started.
    """
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


def rng_for(seed):
    return np.random.default_rng(seed)
