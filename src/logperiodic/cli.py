"""Batch CLI over the pipeline: ingest, resample, synth, fit, scan, classify.

Each subcommand states its settings once, as the list of RunConfig fields
it is built with in `build_parser`. That list gives its flags, the only
keys its flat `key = value` config file may set and the keys its output
records; a required setting may come from either. Precedence is flags >
config file > RunConfig defaults. Each `cmd_*` handler takes the resolved
RunConfig and returns its record, a CSV body or a JSON object, and `main`
alone embeds the subcommand's settings and writes the output, so a result
file is sufficient to reproduce itself.

Exit codes: 0 success, 2 usage, 3 I/O, 4 validation, 5 computation.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import datetime as _dt
import enum
import fractions
import json
import math
import os
import sys
import typing

from . import calibrate, indicator
from . import series as series_mod
from . import synth as synth_mod
from .classify import DAILY_THRESHOLD, WEEKLY_THRESHOLD, assess
from .qualify import FilterConfig
from .qualify import qualify as qualify_fit
from .errors import DomainError, FitFailedError, LogPeriodicError, ValidationError
from .model import LpplsParams

EXIT_OK = 0
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_COMPUTE = 5

WORKERS_ENV = "LOGPERIODIC_WORKERS"

SCAN_COLUMNS = ("date", "t2", "positive_ci", "negative_ci", "pos_count", "neg_count", "total_windows")
SCAN_HEADER = ",".join(SCAN_COLUMNS)


@dataclasses.dataclass
class _RunFields:
    """Run-only settings of the CLI; RunConfig adds the library config fields."""

    input: str | None = None
    stride: int = 1
    max_window: int = indicator.WindowScheme.max_len
    min_window: int = indicator.WindowScheme.min_len
    window_step: int = indicator.WindowScheme.step
    threshold: float | None = None  # resolve_config: daily for stride 1, weekly coarser
    t2_first: int | None = None
    t2_last: int | None = None
    t2_step: int = 1
    seed: int = calibrate.SearchConfig.seed
    output: str | None = None
    format: str | None = None
    workers: int | None = None  # resolve_config: _default_workers()
    # synth's model and series, fit's window, classify's table, review and sign
    tc: float | None = None
    m: float | None = None
    omega: float | None = None
    A: float | None = None
    B: float | None = None
    C1: float = 0.0
    C2: float = 0.0
    n: int | None = None
    noise_sigma: float = synth_mod.SynthSpec.noise_sigma
    noise_phi: float = synth_mod.SynthSpec.noise_phi
    start_date: str = synth_mod.SynthSpec.start_date.isoformat()
    t1: int | None = None
    t2: int | None = None
    scan_table: str | None = None
    review_first: str | None = None  # an index or a YYYY-MM-DD date
    review_last: str | None = None
    sign: str = "positive"

    def _library_values(self, cls) -> dict:
        return {f.name: getattr(self, key) for key, (owner, f) in _LIBRARY_FIELDS.items() if owner is cls}

    def search_config(self) -> calibrate.SearchConfig:
        return calibrate.SearchConfig(**self._library_values(calibrate.SearchConfig), seed=self.seed)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(**self._library_values(FilterConfig))

    def scheme(self) -> indicator.WindowScheme:
        return indicator.WindowScheme(self.max_window, self.min_window, self.window_step)


def _default_workers() -> int:
    """scan's worker count where unset: LOGPERIODIC_WORKERS, else the CPUs this process may use."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(f"{WORKERS_ENV}={env!r} is not an integer") from None
        return _check_setting("workers", workers, WORKERS_ENV)
    # the CPUs this process may run on, not all the machine's CPUs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_CHOICES = {"format": ("csv", "json"), "sign": ("positive", "negative")}


def _check_setting(key: str, value, source: str):
    """Stride and workers must be >= 1, format and sign one of their choices,
    threshold a finite number in (0, 1), start_date a YYYY-MM-DD date and
    each review bound an index or such a date, wherever they are set."""
    if key in ("stride", "workers") and value < 1:
        raise ValidationError(f"{source}: {key} must be >= 1, got {value}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValidationError(f"{source}: {key} must be {' or '.join(_CHOICES[key])}, got {value!r}")
    if key == "threshold" and not math.isfinite(value):
        raise ValidationError(f"{source}: threshold: expected a finite number, got {value}")
    if key == "threshold" and not 0 < value < 1:
        raise ValidationError(f"{source}: threshold must lie in (0, 1), got {value}")
    if key == "start_date":
        _iso_date(value, f"{source}: start_date")
    if key in ("review_first", "review_last") and not _is_index(value):
        _iso_date(value, f"{source}: {key}", "an index or ")
    return value


_SEARCH_NAMES = {f.name for f in dataclasses.fields(calibrate.SearchConfig)}

# RunConfig key -> (library config class, field). The key is the field name;
# a FilterConfig field whose name SearchConfig also uses takes a `filter_`
# prefix, and `seed` stays a run field.
_LIBRARY_FIELDS = {
    ("filter_" if cls is FilterConfig and f.name in _SEARCH_NAMES else "") + f.name: (cls, f)
    for cls in (calibrate.SearchConfig, FilterConfig)
    for f in dataclasses.fields(cls)
    if f.name != "seed"
}

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [
        (key, typing.get_type_hints(cls)[f.name], dataclasses.field(default=f.default))
        for key, (cls, f) in _LIBRARY_FIELDS.items()
    ],
    bases=(_RunFields,),
    namespace={
        "__module__": __name__,
        "__doc__": "Every tunable of the pipeline, with defaults matching the reference setup.",
    },
)


def _scalar_type(hint) -> type:
    """int, float or str: a field's type with any `| None` dropped."""
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    return args[0] if args else hint


_FIELD_TYPES = {name: _scalar_type(hint) for name, hint in typing.get_type_hints(RunConfig).items()}


def _read_text(path: str) -> str:
    """An input file's text; a byte sequence that is not UTF-8 is a validation error."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path} is not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def load_config_file(path: str, command: str, settings) -> dict:
    """Flat `key = value` file, # comments allowed; each key one of the subcommand's settings, once."""
    values, key_lines = {}, {}
    for line_no, line in series_mod._data_lines(_read_text(path)):
        if "=" not in line:
            raise ValidationError(f"{path} line {line_no}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise ValidationError(f"{path} line {line_no}: unknown config key {key!r}")
        if key not in settings:
            raise ValidationError(f"{path} line {line_no}: {key} is not a setting of {command}")
        if key in key_lines:
            raise ValidationError(f"{path} line {line_no}: {key} is set again, first on line {key_lines[key]}")
        key_lines[key] = line_no
        field_type = _FIELD_TYPES[key]
        try:
            value = field_type(raw)
        except ValueError:
            raise ValidationError(
                f"{path} line {line_no}: {key} = {raw!r} is not a valid {field_type.__name__}"
            ) from None
        values[key] = _check_setting(key, value, f"{path} line {line_no}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The subcommand's settings: flags over its config file over RunConfig's defaults,
    which for `threshold` follow the stride and for `workers` are _default_workers()."""
    values = load_config_file(args.config, args.command, args.settings) if args.config else {}
    for name in args.settings:
        if (value := getattr(args, name)) is not None:
            values[name] = _check_setting(name, value, _flag(name))
    missing = [_flag(name) for name in args.required if name not in values]
    if missing:
        args.usage_error("the following arguments are required: " + ", ".join(missing))
    cfg = RunConfig(**values)
    if "threshold" in args.settings and cfg.threshold is None:
        cfg.threshold = float(DAILY_THRESHOLD if cfg.stride == 1 else WEEKLY_THRESHOLD)
    if "workers" in args.settings and cfg.workers is None:
        cfg.workers = _default_workers()
    return cfg


def _jsonable(obj):
    """obj in JSON's types, a non-finite float as "nan", "inf" or "-inf" (RFC 8259 has no such number)."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, fractions.Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator, "value": float(obj)}
    if isinstance(obj, _dt.date):
        return obj.isoformat()
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def _render(config: dict, record: str | dict) -> str:
    """A handler's CSV body or JSON object with the run's config in a `# config:` line or "config" key."""
    csv = isinstance(record, str)
    payload = config if csv else {"config": config, **record}
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=None if csv else 2, allow_nan=False)
    return f"# config: {text}\n{record}" if csv else text + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_series(cfg: RunConfig) -> series_mod.PriceSeries:
    if not cfg.input:
        raise ValidationError("an input CSV is required (--input)")
    return series_mod.resample(series_mod.ingest(_read_text(cfg.input)), cfg.stride)


def cmd_ingest(cfg: RunConfig) -> str:
    return series_mod.emit_csv(_read_series(cfg))


def cmd_resample(cfg: RunConfig) -> str:
    if cfg.stride < 2:
        raise ValidationError("resample needs --stride >= 2")
    return cmd_ingest(cfg)  # reading the input applies the stride


def cmd_synth(cfg: RunConfig) -> str:
    params = LpplsParams(**{f.name: getattr(cfg, f.name) for f in dataclasses.fields(LpplsParams)})
    spec = synth_mod.SynthSpec(
        params=params, n=cfg.n, noise_sigma=cfg.noise_sigma, seed=cfg.seed,
        noise_phi=cfg.noise_phi, start_date=_iso_date(cfg.start_date, "start_date"),
    )
    return series_mod.emit_csv(synth_mod.generate(spec))


def cmd_fit(cfg: RunConfig) -> dict:
    loaded = _read_series(cfg)
    window = calibrate.Window(cfg.t1, cfg.t2)
    result = calibrate.fit(loaded, window, cfg.search_config())
    qualification = dataclasses.asdict(qualify_fit(result, loaded, window, cfg.filter_config()))
    return {
        "window": {"t1": window.t1, "t2": window.t2, "length": window.length},
        **dataclasses.asdict(result),
        "sign": qualification.pop("sign"),
        "qualification": qualification,
    }


def _scan_row(loaded, p) -> dict:
    """One scan output record, for the CSV and the JSON output alike."""
    values = (loaded.date_of(p.t2), p.t2, p.positive_ci, p.negative_ci,
              p.windows_qualified_pos, p.windows_qualified_neg, p.windows_total)
    return dict(zip(SCAN_COLUMNS, values))


def _scan_csv(loaded, points) -> str:
    lines = [SCAN_HEADER]
    for p in points:
        date, *cells = _scan_row(loaded, p).values()
        lines.append(",".join([date.isoformat(), *map(repr, cells)]))
    return "\n".join(lines) + "\n"


def cmd_scan(cfg: RunConfig) -> str | dict:
    loaded = _read_series(cfg)
    scheme = cfg.scheme()
    first = cfg.t2_first if cfg.t2_first is not None else scheme.max_len - 1
    last = cfg.t2_last if cfg.t2_last is not None else len(loaded) - 1
    points = indicator.scan(
        loaded,
        first,
        last,
        cfg.t2_step,
        scheme=scheme,
        search_cfg=cfg.search_config(),
        filter_cfg=cfg.filter_config(),
        base_seed=cfg.seed,
        workers=cfg.workers,
    )
    if not points:
        raise FitFailedError(
            f"no endpoint in [{first}, {last}] has {scheme.max_len} points of history"
        )
    if (cfg.format or "csv") == "json":
        return {"points": [_scan_row(loaded, p) for p in points]}
    return _scan_csv(loaded, points)


def read_scan_csv(text: str) -> list[indicator.IndicatorPoint]:
    """Rebuild indicator points (exact counts) from a scan CSV; each t2 may appear once.

    Blank lines, `#` comment lines and a leading byte-order mark are skipped.
    """
    points = {}
    lines = [line for _, line in series_mod._data_lines(text)]
    if not lines:
        raise ValidationError("empty indicator table")
    if lines[0].strip() != SCAN_HEADER:
        raise ValidationError(f"unexpected indicator table header {lines[0]!r}")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(SCAN_COLUMNS):
            raise ValidationError(f"malformed indicator row {line!r}")
        row = dict(zip(SCAN_COLUMNS, cells))
        try:
            t2, pos, neg, total = (int(row[k]) for k in ("t2", "pos_count", "neg_count", "total_windows"))
            ratios = float(row["positive_ci"]), float(row["negative_ci"])
        except ValueError:
            raise ValidationError(f"non-integer count or non-numeric ratio in indicator row {line!r}") from None
        if total <= 0 or pos < 0 or neg < 0 or pos + neg > total:
            raise ValidationError(f"inconsistent counts in indicator row {line!r}")
        if ratios != (pos / total, neg / total):  # the writer emits repr of each quotient
            raise ValidationError(f"ratio cells disagree with counts in indicator row {line!r}")
        if t2 in points:
            raise ValidationError(f"repeated t2 in indicator row {line!r}")
        points[t2] = indicator.IndicatorPoint(t2, total, pos, neg)
    return list(points.values())


def _iso_date(raw: str, what: str, alternative: str = "") -> _dt.date:
    try:
        return _dt.date.fromisoformat(raw)
    except ValueError:
        raise ValidationError(f"{what} {raw!r} is not {alternative}a YYYY-MM-DD date") from None


def _is_index(raw: str) -> bool:
    try:
        int(raw)
    except ValueError:
        return False
    return True


def _resolve_review_bound(loaded, raw: str, is_start: bool) -> int:
    """A review bound is an index or an ISO date (bracketed to trading days)."""
    if _is_index(raw):
        return int(raw)
    target = _iso_date(raw, "review bound")
    # the dates are validated as strictly increasing
    if is_start:
        i = bisect.bisect_left(loaded.dates, target)
        if i == len(loaded.dates):
            raise ValidationError(f"review start {raw} is after the last observation")
        return i
    i = bisect.bisect_right(loaded.dates, target) - 1
    if i < 0:
        raise ValidationError(f"review end {raw} is before the first observation")
    return i


def cmd_classify(cfg: RunConfig) -> dict:
    loaded = _read_series(cfg)
    points = read_scan_csv(_read_text(cfg.scan_table))
    lo = _resolve_review_bound(loaded, cfg.review_first, True)
    hi = _resolve_review_bound(loaded, cfg.review_last, False)
    assessment = assess(loaded, points, (lo, hi), cfg.threshold, sign=cfg.sign)
    return {"review": {"first": lo, "last": hi}, "sign": cfg.sign, **dataclasses.asdict(assessment)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logperiodic",
        description="Bubble-signature detection via log-periodic power law calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(handler, help: str, names, required=()) -> None:
        """The subparser that runs `cmd_<name>` on the RunConfig fields in names and required."""
        p = sub.add_parser(handler.__name__.removeprefix("cmd_"), help=help)
        p.add_argument("--config", help="flat key=value config file")
        for name in (*required, *names):
            p.add_argument(_flag(name), dest=name, type=_FIELD_TYPES[name], default=None,
                           help="required, here or in --config" if name in required else None)
        p.set_defaults(handler=handler, settings=(*required, *names), required=required, usage_error=p.error)

    command(cmd_ingest, "validate a date,close CSV and normalize it", ["input", "output"])
    command(cmd_resample, "extract every stride-th point, anchored at the last",
            ["input", "stride", "output"])
    command(cmd_synth, "generate a synthetic model-driven CSV",
            ["C1", "C2", "noise_sigma", "noise_phi", "start_date", "seed", "output"],
            required=("tc", "m", "omega", "A", "B", "n"))
    command(cmd_fit, "calibrate and qualify one window",
            ["input", "stride", "seed", "output", *_LIBRARY_FIELDS], required=("t1", "t2"))
    command(cmd_scan, "confidence indicator over a range of endpoints",
            ["input", "stride", "max_window", "min_window", "window_step", "t2_first", "t2_last",
             "t2_step", "output", "format", "workers", *_LIBRARY_FIELDS], required=("seed",))
    command(cmd_classify, "classify a crash from a scan table",
            ["input", "stride", "threshold", "sign", "output"],
            required=("scan_table", "review_first", "review_last"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        record = args.handler(cfg)
        _write_output(_render({name: getattr(cfg, name) for name in args.settings}, record), cfg.output)
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except LogPeriodicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
