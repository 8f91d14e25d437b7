"""Hypothesis properties of the series layer, the cost kernel and the indicator."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from logperiodic import (  # noqa: E402
    PriceSeries, SearchConfig, SynthSpec, ValidationError, Window, WindowScheme, confidence_at,
    generate, resample, scan,
)
from logperiodic.calibrate import _objective, _profile, _window_arrays  # noqa: E402
from conftest import bubble_params  # noqa: E402
from oracles import dense_normal_solve, residual_sum_of_squares  # noqa: E402

NOISY = generate(SynthSpec(params=bubble_params(420.0, 0.5, 10.0), n=400, noise_sigma=0.02, seed=17))
LONG = generate(SynthSpec(params=bubble_params(700.0, 0.5, 10.0), n=680, noise_sigma=0.02, seed=17))

# Three windows and a small budget: the determinism properties hold for
# any scheme, and every example runs whole scans.
TINY_SCHEME = WindowScheme(max_len=60, min_len=30, step=15)
TINY_SEARCH = SearchConfig(max_evaluations=300, restarts=2)

# Row kinds of a mixed kernel batch: admissible, tc at or before the window
# end, m ~ 0 (power-law column collinear with the intercept), and m so large
# that (tc - t)^m overflows.
ROW_KINDS = ("admissible", "tc-not-past-end", "degenerate", "overflow")
# (tc offset from the window end, m, omega) of one row
ROW = st.tuples(
    st.floats(min_value=0.5, max_value=40.0),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.5, max_value=45.0),
)


def _batch(w, rows):
    """(k, 3) kernel batch from (kind, tc offset, m, omega) rows."""
    return np.array([
        (
            w.t2 - offset + 0.5 if kind == "tc-not-past-end" else w.t2 + offset,
            {"degenerate": 1e-12, "overflow": 400.0}.get(kind, m),
            omega,
        )
        for kind, offset, m, omega in rows
    ])


@given(n=st.integers(min_value=2, max_value=400), stride=st.integers(min_value=1, max_value=60))
def test_resample_keeps_last_point_and_ceil_length(n, stride):
    s = PriceSeries(100.0 + np.arange(n, dtype=float), None, 1)
    if math.ceil(n / stride) < 2:
        with pytest.raises(ValidationError):
            resample(s, stride)
        return
    out = resample(s, stride)
    assert len(out) == math.ceil(n / stride)
    assert out.prices[-1] == s.prices[-1]
    assert out.stride == stride


@settings(max_examples=60, deadline=None)
@given(
    t1=st.integers(min_value=0, max_value=300),
    length=st.integers(min_value=20, max_value=100),
    rows=st.lists(
        st.tuples(
            st.sampled_from(ROW_KINDS),
            st.floats(min_value=0.5, max_value=40.0),
            st.floats(min_value=0.05, max_value=0.95),
            st.floats(min_value=1.5, max_value=45.0),
        ),
        min_size=1,
        max_size=9,
    ),
)
def test_kernel_batch_rows_equal_their_own_evaluation(t1, length, rows):
    w = Window(t1, min(t1 + length, 399))
    t, y = _window_arrays(NOISY, w)
    points = _batch(w, rows)
    beta, sse, ok = _profile(t, y, points)
    for k, (kind, *_) in enumerate(rows):
        one_beta, one_sse, one_ok = _profile(t, y, points[k : k + 1])
        assert ok[k] == one_ok[0]
        if kind != "admissible":
            assert not ok[k]
        if not ok[k]:
            assert sse[k] == np.inf
            continue
        np.testing.assert_allclose(beta[k], one_beta[0], rtol=1e-12, atol=0.0)
        assert sse[k] == pytest.approx(one_sse[0], rel=1e-12, abs=0.0)
        want = dense_normal_solve(t, y, *points[k])
        assert np.max(np.abs(beta[k] - want) / np.maximum(np.abs(want), 1e-10)) <= 1e-8
        assert sse[k] == pytest.approx(residual_sum_of_squares(t, y, *points[k], *beta[k]), rel=1e-9)


@settings(max_examples=10, deadline=None)
@given(big=st.lists(ROW, min_size=35, max_size=35), small=st.lists(ROW, min_size=7, max_size=7))
def test_objective_scratch_never_leaks_between_calls(big, small):
    # One closure serves a whole fit: a 7-row call after a 35-row one leaves
    # stale rows in its scratch, and the next 35-row call must not see them.
    w = Window(679 - 649, 679)
    t, y = _window_arrays(LONG, w)
    func = _objective(t, y, SearchConfig(damping_floor=0.0))
    for rows in (big, small, big):
        points = _batch(w, [(ROW_KINDS[i % len(ROW_KINDS)], *row) for i, row in enumerate(rows)])
        assert np.array_equal(func(points), _profile(t, y, points)[1])


@settings(max_examples=3, deadline=None)
@given(first=st.integers(min_value=59, max_value=396), base_seed=st.integers(0, 2**32 - 1))
def test_scan_does_not_depend_on_worker_count(first, base_seed):
    args = (NOISY, first, first + 2, 1, TINY_SCHEME, TINY_SEARCH)
    assert scan(*args, base_seed=base_seed, workers=1) == scan(*args, base_seed=base_seed, workers=2)


@settings(max_examples=5, deadline=None)
@given(t2=st.integers(min_value=59, max_value=398), base_seed=st.integers(0, 2**32 - 1))
def test_indicator_is_unchanged_by_truncation_after_t2(t2, base_seed):
    def at(series):
        return confidence_at(series, t2, TINY_SCHEME, TINY_SEARCH, base_seed=base_seed,
                             keep_diagnostics=True)

    assert at(NOISY.truncate(t2)) == at(NOISY)
