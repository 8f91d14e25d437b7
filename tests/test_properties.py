"""Hypothesis properties of the series layer."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from logperiodic import PriceSeries, ValidationError, resample  # noqa: E402


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
