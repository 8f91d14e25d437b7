"""Price series ingestion and resampling.

A PriceSeries is an immutable, trading-step-indexed copy of closing prices:
indices are always 0..N-1 after construction, calendar dates are optional
metadata, and all downstream time arithmetic happens in step units.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, integer

__all__ = ["PriceSeries", "ingest", "resample", "emit_csv"]

CSV_HEADER = "date,close"


@dataclass(frozen=True, eq=False, repr=False)
class PriceSeries:
    """Ordered positive prices at a fixed stride (1=daily, 5=weekly, 21=monthly).

    Holds a read-only copy of the prices, so it is safe to share across
    threads and processes and the caller's array stays the caller's.
    """

    prices: np.ndarray
    dates: tuple[_dt.date, ...] | None = None
    stride: int = 1
    log_prices: np.ndarray = field(init=False)

    def __post_init__(self):
        prices = np.array(self.prices, dtype=float)
        if prices.ndim != 1 or prices.size < 2:
            raise ValidationError("a price series needs at least 2 observations")
        if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
            bad = int(np.flatnonzero(~np.isfinite(prices) | (prices <= 0.0))[0])
            raise ValidationError(f"non-positive or non-finite price at index {bad}")
        stride = integer("stride", self.stride, 1)
        dates = self.dates
        if dates is not None:
            dates = tuple(dates)
            if len(dates) != prices.size:
                raise ValidationError("dates and prices must have equal length")
            for a, b in zip(dates, dates[1:]):
                if b <= a:
                    raise ValidationError(f"dates not strictly increasing at {b}")
        log_prices = np.log(prices)
        prices.setflags(write=False)
        log_prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "log_prices", log_prices)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "stride", stride)

    def __reduce__(self):
        return (PriceSeries, (self.prices, self.dates, self.stride))

    def __len__(self) -> int:
        return self.prices.size

    def date_of(self, i: int) -> _dt.date | None:
        i = integer("index", i)
        if not 0 <= i < len(self):
            raise ValidationError(f"index {i} outside series of length {len(self)}")
        return self.dates[i] if self.dates is not None else None

    def truncate(self, last_index: int) -> "PriceSeries":
        """Series restricted to indices 0..last_index (inclusive)."""
        last_index = integer("last_index", last_index)
        if not 1 <= last_index < len(self):
            raise ValidationError(f"truncation index {last_index} out of range")
        dates = self.dates[: last_index + 1] if self.dates is not None else None
        return PriceSeries(self.prices[: last_index + 1], dates, self.stride)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (
            self.stride == other.stride
            and self.dates == other.dates
            and np.array_equal(self.prices, other.prices)
        )

    def __repr__(self) -> str:
        span = ""
        if self.dates is not None:
            span = f", {self.dates[0].isoformat()}..{self.dates[-1].isoformat()}"
        return f"PriceSeries(n={len(self)}, stride={self.stride}{span})"


def _parse_date(text: str, line_no: int) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ValidationError(f"line {line_no}: invalid date {text!r} (expected YYYY-MM-DD)") from None


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every line that is neither blank nor a `#` comment.

    Numbers count every line of the text from 1, comments and blanks
    included; a leading UTF-8 byte-order mark is dropped. The CSV, config
    file and scan table readers all split their text here.
    """
    numbered = enumerate(text.removeprefix("\ufeff").splitlines(), start=1)
    return [(no, ln) for no, ln in numbered if ln.strip() and not ln.lstrip().startswith("#")]


def ingest(csv_text: str) -> PriceSeries:
    """Parse `date,close` CSV text into a stride-1 PriceSeries.

    One row per trading day, dates strictly increasing, prices positive,
    and as many cells in every row as in the header. Rows are rejected
    rather than repaired; errors carry the offending line's number in the
    text, comment and blank lines counted. A trailing `index` column, as
    written by emit_csv, is accepted and ignored, as are `#` comment lines
    and a leading UTF-8 byte-order mark.
    """
    lines = _data_lines(csv_text)
    if not lines:
        raise ValidationError("empty CSV input")
    header_line = lines[0][1]
    header = [c.strip().lower() for c in header_line.split(",")]
    if header[:2] != ["date", "close"] or (len(header) == 3 and header[2] != "index") or len(header) > 3:
        raise ValidationError(f"expected header '{CSV_HEADER}', got {header_line!r}")
    if len(lines) == 1:
        raise ValidationError("CSV has a header but no data rows")

    width, expected = len(header), ",".join(header)
    dates: list[_dt.date] = []
    prices: list[float] = []
    for line_no, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:  # a thousands separator would split a close in two
            raise ValidationError(f"line {line_no}: expected '{expected}', got {line!r}")
        date = _parse_date(cells[0], line_no)
        try:
            price = float(cells[1])
        except ValueError:
            raise ValidationError(f"line {line_no}: non-numeric close {cells[1]!r}") from None
        if not np.isfinite(price):
            raise ValidationError(f"line {line_no}: non-finite close {cells[1]!r}")
        if price <= 0.0:
            raise ValidationError(f"line {line_no}: non-positive close {cells[1]!r}")
        if dates and date <= dates[-1]:
            raise ValidationError(
                f"line {line_no}: date {date.isoformat()} not after {dates[-1].isoformat()}"
            )
        dates.append(date)
        prices.append(price)
    return PriceSeries(prices, dates, stride=1)


def resample(series: PriceSeries, stride: int) -> PriceSeries:
    """Keep every stride-th point counting backward from the last observation.

    The final point always survives, so every scan endpoint stays aligned
    with a real observation; the result is re-indexed 0..M-1 and carries
    the requested stride. Output length is ceil(N / stride).
    """
    stride = integer("stride", stride, 1)
    if series.stride != 1:
        raise ValidationError(f"can only resample a stride-1 series, got stride {series.stride}")
    if stride == 1:
        return series
    n = len(series)
    keep = np.arange(n - 1, -1, -stride)[::-1]
    if keep.size < 2:
        raise ValidationError(f"stride {stride} leaves fewer than 2 of {n} points")
    dates = None
    if series.dates is not None:
        dates = tuple(series.dates[i] for i in keep)
    return PriceSeries(series.prices[keep], dates, stride=stride)


def emit_csv(series: PriceSeries) -> str:
    """Render a series in the ingestible CSV format plus an `index` column."""
    if series.dates is None:
        raise ValidationError("cannot emit CSV for a series without dates")
    rows = [CSV_HEADER + ",index"]
    for i in range(len(series)):
        rows.append(f"{series.dates[i].isoformat()},{float(series.prices[i])!r},{i}")
    return "\n".join(rows) + "\n"
