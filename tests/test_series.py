import datetime as dt
import math
import re

import numpy as np
import pytest

from logperiodic import PriceSeries, ValidationError, emit_csv, ingest, resample

CSV3 = "date,close\n2020-03-02,100.0\n2020-03-03,101.5\n2020-03-04,99.25\n"


def test_ingest_three_rows():
    s = ingest(CSV3)
    assert len(s) == 3
    assert s.stride == 1
    assert s.prices.tolist() == [100.0, 101.5, 99.25]
    assert s.dates == (dt.date(2020, 3, 2), dt.date(2020, 3, 3), dt.date(2020, 3, 4))
    for price, log_price in zip(s.prices, s.log_prices):
        assert log_price == pytest.approx(math.log(price), abs=1e-15)


def test_ingest_rejects_zero_price_with_row():
    bad = "date,close\n2020-03-02,100.0\n2020-03-03,0\n"
    with pytest.raises(ValidationError, match="line 3"):
        ingest(bad)


def test_ingest_rejects_non_numeric_price():
    with pytest.raises(ValidationError, match="line 2.*non-numeric"):
        ingest("date,close\n2020-03-02,abc\n")


def test_ingest_rejects_unsorted_dates():
    bad = "date,close\n2020-03-02,100.0\n2020-03-01,101.0\n"
    with pytest.raises(ValidationError, match="not after"):
        ingest(bad)


def test_ingest_rejects_duplicate_dates():
    bad = "date,close\n2020-03-02,100.0\n2020-03-02,101.0\n"
    with pytest.raises(ValidationError):
        ingest(bad)


def test_ingest_rejects_empty_and_header_only():
    with pytest.raises(ValidationError):
        ingest("")
    with pytest.raises(ValidationError, match="no data rows"):
        ingest("date,close\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # a thousands separator splits the close in two: 3 and 386.15, not 3386.15
        ("date,close\n2020-03-02,3,386.15\n", "line 2: expected 'date,close', got '2020-03-02,3,386.15'"),
        ("date,close,index\n2020-03-02,100.0,0\n2020-03-03,101.5\n",
         "line 3: expected 'date,close,index', got '2020-03-03,101.5'"),
        ("date,close,index\n2020-03-02,100.0,0,7\n", "line 2: expected 'date,close,index'"),
    ],
)
def test_ingest_rejects_a_row_whose_width_differs_from_the_header(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        ingest(text)


def test_ingest_rejects_wrong_header():
    with pytest.raises(ValidationError, match="header"):
        ingest("time,price\n2020-03-02,1.0\n")


def test_ingest_rejects_bad_date():
    with pytest.raises(ValidationError, match="invalid date"):
        ingest("date,close\n03/02/2020,1.0\n")


def test_ingest_skips_comment_lines():
    s = ingest("# config: {}\n" + CSV3)
    assert len(s) == 3


def test_ingest_accepts_leading_bom():
    assert ingest("\ufeff" + CSV3) == ingest(CSV3)


def test_resample_stride_one_is_identity():
    s = ingest(CSV3)
    assert resample(s, 1) is s


def test_resample_650_daily_by_5():
    prices = np.linspace(100.0, 200.0, 650)
    s = PriceSeries(prices, None, stride=1)
    weekly = resample(s, 5)
    assert len(weekly) == 130
    assert weekly.stride == 5
    assert weekly.prices[-1] == s.prices[-1]
    # backward anchored: kept original indices are 649, 644, ..., 4
    assert weekly.prices[0] == s.prices[4]


def test_resample_652_daily_by_21():
    prices = np.linspace(50.0, 80.0, 652)
    s = PriceSeries(prices, None, stride=1)
    monthly = resample(s, 21)
    assert len(monthly) == 32
    # original indices 651, 630, ..., 0 reversed: the very first point survives
    assert monthly.prices[0] == s.prices[0]
    assert monthly.prices[-1] == s.prices[-1]
    assert monthly.prices.tolist() == s.prices[651::-21][::-1].tolist()


@pytest.mark.parametrize("seed", range(8))
def test_resample_length_and_endpoint_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    stride = int(rng.integers(1, 30))
    prices = rng.uniform(1.0, 10.0, n)
    s = PriceSeries(prices, None, stride=1)
    expected_len = math.ceil(n / stride)
    if expected_len < 2:
        with pytest.raises(ValidationError):
            resample(s, stride)
        return
    out = resample(s, stride)
    assert len(out) == expected_len
    assert out.prices[-1] == s.prices[-1]


def test_resample_rejects_bad_stride_and_restride():
    s = ingest(CSV3)
    with pytest.raises(ValidationError):
        resample(s, 0)
    prices = np.linspace(100.0, 200.0, 650)
    weekly = resample(PriceSeries(prices, None, 1), 5)
    with pytest.raises(ValidationError, match="stride-1"):
        resample(weekly, 5)


def test_csv_round_trip_bit_exact():
    rng = np.random.default_rng(42)
    n = 60
    prices = np.exp(rng.uniform(0.0, 9.0, n))
    start = dt.date(2019, 1, 2)
    dates = []
    day = start
    while len(dates) < n:
        if day.weekday() < 5:
            dates.append(day)
        day += dt.timedelta(days=1)
    s = PriceSeries(prices, dates, stride=1)
    back = ingest(emit_csv(s))
    assert back == s
    assert np.array_equal(back.prices, s.prices)


def test_emit_requires_dates():
    s = PriceSeries([1.0, 2.0], None, 1)
    with pytest.raises(ValidationError):
        emit_csv(s)


def test_series_validation():
    with pytest.raises(ValidationError):
        PriceSeries([1.0], None, 1)
    with pytest.raises(ValidationError):
        PriceSeries([1.0, -2.0], None, 1)
    with pytest.raises(ValidationError):
        PriceSeries([1.0, float("nan")], None, 1)
    with pytest.raises(ValidationError):
        PriceSeries([1.0, 2.0], [dt.date(2020, 1, 2)], 1)
    with pytest.raises(ValidationError):
        PriceSeries([1.0, 2.0], [dt.date(2020, 1, 2), dt.date(2020, 1, 2)], 1)
    with pytest.raises(ValidationError, match="stride must be >= 1, got 0"):
        PriceSeries([1.0, 2.0], None, stride=0)


@pytest.mark.parametrize("stride", [2.5, "x", "2", None])
def test_stride_must_be_an_integer(stride):
    # 2.5 was truncated to stride 2 and 'x' raised a bare ValueError
    with pytest.raises(ValidationError, match=f"stride must be an integer, got {stride!r}"):
        PriceSeries([1.0, 2.0], None, stride=stride)
    with pytest.raises(ValidationError, match=f"stride must be an integer, got {stride!r}"):
        resample(ingest(CSV3), stride)
    assert type(PriceSeries([1.0, 2.0], None, stride=np.int64(5)).stride) is int


def test_series_repr():
    assert repr(ingest(CSV3)) == "PriceSeries(n=3, stride=1, 2020-03-02..2020-03-04)"
    assert repr(PriceSeries([1.0, 2.0], None, 5)) == "PriceSeries(n=2, stride=5)"


def test_series_immutable():
    s = ingest(CSV3)
    with pytest.raises(AttributeError):
        s.stride = 5
    with pytest.raises(ValueError):
        s.prices[0] = 1.0


def test_series_leaves_the_callers_array_writable():
    prices = np.array([1.0, 2.0, 3.0])
    PriceSeries(prices, None, 1)
    assert prices.flags.writeable


def test_series_does_not_alias_the_callers_array():
    base = np.array([1.0, 2.0, 3.0])
    s = PriceSeries(base[:], None, 1)
    base[0] = -99.0
    assert s.prices.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(s.log_prices, np.log([1.0, 2.0, 3.0]))


def test_truncate():
    s = ingest(CSV3)
    t = s.truncate(1)
    assert len(t) == 2
    assert t.prices.tolist() == [100.0, 101.5]
    assert t.dates == s.dates[:2]
    with pytest.raises(ValidationError):
        s.truncate(0)
    with pytest.raises(ValidationError):
        s.truncate(3)
    # date_of(-1) returned the last date, date_of(3) died on a bare IndexError
    for series in (s, PriceSeries(s.prices)):
        for i in (-1, 3):
            with pytest.raises(ValidationError, match=f"^index {i} outside series of length 3$"):
                series.date_of(i)


@pytest.mark.parametrize("call, name", [
    (lambda s: s.truncate(1.7), "last_index"),
    (lambda s: s.date_of(1.9), "index"),
], ids=["truncate", "date_of"])
def test_series_indices_must_be_integers(call, name):
    # truncate(1.7) kept 2 points and date_of(1.9) returned index 1's date
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        call(ingest(CSV3))
