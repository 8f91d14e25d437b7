import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logperiodic
from logperiodic import PriceSeries, SynthSpec, emit_csv, generate, ingest
from logperiodic.cli import RunConfig, build_parser, main, read_scan_csv, resolve_config
from logperiodic.synth import trading_dates
from conftest import bubble_params

FAST = ["--max-evaluations", "1200", "--restarts", "3"]
SMALL_SCAN = [
    "--max-window", "120", "--min-window", "40", "--window-step", "20",
    "--max-evaluations", "600", "--restarts", "2", "--t2-first", "419", "--t2-last", "419",
]
FIT = ["fit", "--input", "{csv}", "--t1", "320", "--t2", "419"]
SYNTH = ["synth", "--tc", "430", "--m", "0.5", "--omega", "8", "--A", "8", "--B", "-0.8", "--n", "100"]
CLASSIFY = ["classify", "--input", "{csv}", "--scan-table", "{tmp}/scan.csv", "--review-last", "470"]
SCAN_HEADER = "date,t2,positive_ci,negative_ci,pos_count,neg_count,total_windows\n"


@pytest.fixture(scope="module")
def bubble_csv(tmp_path_factory):
    """Bubble through index 419 followed by a 60-step decline, as a CSV file."""
    params = bubble_params(430.0, 0.5, 8.0, B=-0.8)
    bubble = generate(SynthSpec(params=params, n=420, noise_sigma=0.004, seed=11, noise_phi=0.4))
    rng = np.random.default_rng(99)
    post = bubble.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(60))
    prices = np.exp(np.concatenate([bubble.log_prices, post]))
    s = PriceSeries(prices, trading_dates(bubble.dates[0], 480), 1)
    path = tmp_path_factory.mktemp("data") / "bubble.csv"
    path.write_text(emit_csv(s), encoding="utf-8")
    return path, s


def test_synth_then_ingest_round_trip(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code = main([
        "synth", "--tc", "220", "--m", "0.5", "--omega", "10", "--A", "8",
        "--B", "-0.5", "--C1", "0.01", "--C2", "0.01", "--n", "120",
        "--noise-sigma", "0.01", "--seed", "5", "--output", str(out),
    ])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# config: ")
    series = ingest(text)
    assert len(series) == 120

    code = main(["ingest", "--input", str(out)])
    assert code == 0
    echoed = capsys.readouterr().out
    assert ingest(echoed) == series


def test_resample_row_count_and_config_precedence(tmp_path, capsys):
    src = tmp_path / "daily.csv"
    params = bubble_params(700.0, 0.5, 10.0)
    daily = generate(SynthSpec(params=params, n=650, noise_sigma=0.0))
    src.write_text(emit_csv(daily), encoding="utf-8")

    cfg = tmp_path / "run.cfg"
    cfg.write_text("stride = 5\n", encoding="utf-8")

    assert main(["resample", "--input", str(src), "--config", str(cfg)]) == 0
    assert len(ingest(capsys.readouterr().out)) == 130  # config file value

    assert main(["resample", "--input", str(src), "--config", str(cfg), "--stride", "10"]) == 0
    out = capsys.readouterr().out
    assert len(ingest(out)) == 65  # flag overrides config file
    embedded = json.loads(out.splitlines()[0].removeprefix("# config: "))
    assert embedded["stride"] == 10

    bom_cfg = tmp_path / "bom.cfg"
    bom_cfg.write_bytes(b"\xef\xbb\xbfstride = 5\n")  # saved with a UTF-8 byte-order mark
    assert main(["resample", "--input", str(src), "--config", str(bom_cfg)]) == 0
    assert len(ingest(capsys.readouterr().out)) == 130


def test_fit_reports_qualified_bubble(bubble_csv, tmp_path, capsys):
    path, _ = bubble_csv
    out = tmp_path / "fit.json"
    code = main([
        "fit", "--input", str(path), "--t1", "320", "--t2", "419",
        "--seed", "0", "--output", str(out), *FAST,
    ])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["qualification"]["qualified"] is True
    assert report["sign"] == "positive-bubble"
    assert report["params"]["B"] < 0
    assert report["window"] == {"t1": 320, "t2": 419, "length": 100}
    assert report["config"]["seed"] == 0
    assert report.keys() == {"config", "window", "params", "cost", "evaluations", "qualification", "sign"}


def test_fit_window_outside_series_is_validation_error(bubble_csv, capsys):
    path, _ = bubble_csv
    code = main(["fit", "--input", str(path), "--t1", "0", "--t2", "9999", "--seed", "1"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,close\n2020-01-02,100\n2020-01-03,-5\n", encoding="utf-8")
    code = main(["fit", "--input", str(bad), "--t1", "0", "--t2", "9"])
    assert code == 4
    assert "line 3" in capsys.readouterr().err


def test_scan_is_deterministic_and_subsampled_consistently(bubble_csv, tmp_path):
    path, _ = bubble_csv
    args = [
        "scan", "--input", str(path),
        "--max-window", "120", "--min-window", "40", "--window-step", "20",
        "--max-evaluations", "600", "--restarts", "2",
        "--seed", "42", "--workers", "1",
    ]
    out1 = tmp_path / "scan.csv"
    assert main(args + ["--t2-first", "415", "--t2-last", "419", "--t2-step", "1", "--output", str(out1)]) == 0
    first_bytes = out1.read_bytes()
    assert main(args + ["--t2-first", "415", "--t2-last", "419", "--t2-step", "1", "--output", str(out1)]) == 0
    assert out1.read_bytes() == first_bytes

    header = out1.read_text(encoding="utf-8").splitlines()[1]
    assert header == "date,t2,positive_ci,negative_ci,pos_count,neg_count,total_windows"

    out_step2 = tmp_path / "scan_step2.csv"
    assert main(args + ["--t2-first", "415", "--t2-last", "419", "--t2-step", "2", "--output", str(out_step2)]) == 0
    rows_all = {ln.split(",")[1]: ln for ln in out1.read_text().splitlines()[2:]}
    rows_sub = [ln for ln in out_step2.read_text().splitlines()[2:]]
    assert len(rows_sub) == 3
    for ln in rows_sub:
        assert rows_all[ln.split(",")[1]] == ln


def test_scan_json_format(bubble_csv, tmp_path):
    path, _ = bubble_csv
    out = tmp_path / "scan.json"
    code = main([
        "scan", "--input", str(path),
        "--max-window", "120", "--min-window", "40", "--window-step", "20",
        "--max-evaluations", "600", "--restarts", "2",
        "--t2-first", "419", "--t2-last", "419", "--seed", "42",
        "--workers", "1", "--format", "json", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["points"][0]["t2"] == 419
    assert payload["points"][0]["total_windows"] == 5
    assert payload["config"]["seed"] == 42


def test_classify_from_scan_table(bubble_csv, tmp_path):
    path, series = bubble_csv
    scan_out = tmp_path / "scan.csv"
    code = main([
        "scan", "--input", str(path),
        "--max-window", "120", "--min-window", "40", "--window-step", "20",
        "--t2-first", "415", "--t2-last", "425", "--t2-step", "5",
        "--seed", "42", "--workers", "2", "--output", str(scan_out), *FAST,
    ])
    assert code == 0
    points = read_scan_csv(scan_out.read_text(encoding="utf-8"))
    assert max(p.positive_ci for p in points) > 0

    out = tmp_path / "assessment.json"
    code = main([
        "classify", "--input", str(path), "--scan-table", str(scan_out),
        "--review-first", "410", "--review-last", "470", "--output", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["crash_type"] == "Endogenous"
    assert payload["threshold"]["value"] == 0.05
    assert payload["peak_ci"]["value"] >= 0.05
    assert payload["valley_price"] < payload["peak_price"]

    # date-valued review bounds resolve against the series calendar
    first = series.dates[410].isoformat()
    last = series.dates[470].isoformat()
    code = main([
        "classify", "--input", str(path), "--scan-table", str(scan_out),
        "--review-first", first, "--review-last", last, "--output", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["crash_type"] == "Endogenous"


def test_classify_date_bounds_snap_to_trading_days(bubble_csv, tmp_path, capsys):
    path, series = bubble_csv
    table = tmp_path / "scan.csv"
    table.write_text(SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n", encoding="utf-8")
    first = next(i for i in range(411, 470) if series.dates[i].weekday() == 0)  # a Monday
    last = next(i for i in range(469, 420, -1) if series.dates[i].weekday() == 4)  # a Friday
    saturday_before_first = series.dates[first] - datetime.timedelta(days=2)
    saturday_after_last = series.dates[last] + datetime.timedelta(days=1)
    base = ["classify", "--input", str(path), "--scan-table", str(table)]
    bounds = ["--review-first", saturday_before_first.isoformat(),
              "--review-last", saturday_after_last.isoformat()]
    code = main(base + bounds)
    assert code == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["review"] == {"first": first, "last": last}

    # the same table saved with a UTF-8 byte-order mark classifies alike; only
    # the recorded table path differs
    bom_table = tmp_path / "bom_scan.csv"
    bom_table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
    assert main(["classify", "--input", str(path), "--scan-table", str(bom_table), *bounds]) == 0
    from_bom = json.loads(capsys.readouterr().out)
    tables = plain["config"].pop("scan_table"), from_bom["config"].pop("scan_table")
    assert tables == (str(table), str(bom_table))
    assert from_bom == plain

    after_last = (series.dates[-1] + datetime.timedelta(days=1)).isoformat()
    before_first = (series.dates[0] - datetime.timedelta(days=1)).isoformat()
    for bounds, message in (
        (["--review-first", after_last, "--review-last", "470"], "is after the last observation"),
        (["--review-first", "410", "--review-last", before_first], "is before the first observation"),
    ):
        assert main(base + bounds) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def test_classify_review_outside_table_is_validation_error(bubble_csv, tmp_path, capsys):
    path, _ = bubble_csv
    scan_out = tmp_path / "scan.csv"
    main([
        "scan", "--input", str(path),
        "--max-window", "120", "--min-window", "40", "--window-step", "20",
        "--max-evaluations", "600", "--restarts", "2",
        "--t2-first", "419", "--t2-last", "419", "--seed", "42",
        "--workers", "1", "--output", str(scan_out),
    ])
    code = main([
        "classify", "--input", str(path), "--scan-table", str(scan_out),
        "--review-first", "0", "--review-last", "100",
    ])
    assert code == 4


def test_workers_env_var(bubble_csv, tmp_path, monkeypatch, capsys):
    path, _ = bubble_csv
    monkeypatch.setenv("LOGPERIODIC_WORKERS", "1")
    out = tmp_path / "scan.csv"
    code = main([
        "scan", "--input", str(path),
        "--max-window", "120", "--min-window", "40", "--window-step", "20",
        "--max-evaluations", "600", "--restarts", "2",
        "--t2-first", "419", "--t2-last", "419", "--seed", "42", "--output", str(out),
    ])
    assert code == 0
    embedded = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
    assert embedded["workers"] == 1


def test_scan_records_the_requested_workers(bubble_csv, tmp_path, pool_sizes):
    # the pool starts one process per task (two endpoints, one chunk each), and
    # the embedded config keeps the count asked for, so outputs stay comparable
    path, _ = bubble_csv
    texts = []
    for workers in ("1", "5000"):
        out = tmp_path / f"scan{workers}.csv"
        assert main([
            "scan", "--input", str(path),
            "--max-window", "120", "--min-window", "40", "--window-step", "20",
            "--max-evaluations", "300", "--restarts", "1", "--workers", workers,
            "--t2-first", "409", "--t2-last", "419", "--t2-step", "10", "--seed", "42",
            "--output", str(out),
        ]) == 0
        texts.append(out.read_text())
    assert pool_sizes == [2]
    embedded = json.loads(texts[1].splitlines()[0].removeprefix("# config: "))
    assert embedded["workers"] == 5000
    assert texts[0].splitlines()[1:] == texts[1].splitlines()[1:]


def test_default_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to 2 of 64 CPUs starts 2 workers, not 64
    monkeypatch.delenv("LOGPERIODIC_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 17}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_config(build_parser().parse_args(["scan", "--seed", "0"])).workers == 2


def test_fit_with_overflowing_m_box_ends_in_a_fit(bubble_csv, capsys):
    path, _ = bubble_csv
    code = main([
        "fit", "--input", str(path), "--t1", "120", "--t2", "419", "--m-max", "150",
        "--max-evaluations", "600", "--restarts", "1", "--seed", "0",
    ])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["params"]["m"] <= 150.0


def test_only_scan_resolves_workers(bubble_csv, monkeypatch, capsys):
    path, _ = bubble_csv
    outputs = []
    for workers in ("1", "2", "0"):
        monkeypatch.setenv("LOGPERIODIC_WORKERS", workers)
        assert main(["ingest", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "workers" not in json.loads(outputs[0].splitlines()[0].removeprefix("# config: "))


def _settings(command: str) -> tuple:
    return build_parser().parse_args([command]).settings


LIBRARY_KEYS = {
    "m_min": 0.0, "m_max": 1.0, "omega_min": 1.0, "omega_max": 50.0,
    "tc_extension": 1.0 / 3.0, "damping_floor": 1.0,
    "population": 7, "max_evaluations": 2000, "restarts": 5,
    "filter_m_min": 0.01, "filter_m_max": 0.99, "filter_omega_min": 2.0,
    "filter_omega_max": 25.0, "filter_tc_extension": 0.2,
    "oscillation_threshold": 2.5, "oscillation_divisor": 2.0, "max_rel_error": 0.20,
    "lomb_alpha": 0.05, "ou_alpha": 0.05,
}


def test_config_surface_is_pinned():
    """Each subcommand's flags, config-file keys and recorded keys, with their defaults.

    The library keys are named after the SearchConfig and FilterConfig
    fields: renaming one renames a flag and a config key, so it must show
    up here.
    """
    surface = {
        "ingest": {"input": None, "output": None},
        "resample": {"input": None, "stride": 1, "output": None},
        "synth": {
            "tc": None, "m": None, "omega": None, "A": None, "B": None, "n": None, "C1": 0.0, "C2": 0.0,
            "noise_sigma": 0.0, "noise_phi": 0.0, "start_date": "2000-01-03", "seed": 0, "output": None,
        },
        "fit": {"t1": None, "t2": None, "input": None, "stride": 1, "seed": 0, "output": None, **LIBRARY_KEYS},
        "scan": {
            "seed": 0, "input": None, "stride": 1, "max_window": 650, "min_window": 30, "window_step": 5,
            "t2_first": None, "t2_last": None, "t2_step": 1, "output": None, "format": None, "workers": None,
            **LIBRARY_KEYS,
        },
        "classify": {
            "scan_table": None, "review_first": None, "review_last": None, "input": None, "stride": 1,
            "threshold": None, "sign": "positive", "output": None,
        },
    }
    defaults = RunConfig()
    assert {command: {name: getattr(defaults, name) for name in _settings(command)}
            for command in surface} == surface


def test_default_threshold_follows_the_stride():
    def threshold(stride):
        args = build_parser().parse_args(["classify", "--stride", stride, "--scan-table", "s",
                                          "--review-first", "0", "--review-last", "1"])
        return resolve_config(args).threshold

    daily, weekly = threshold("1"), threshold("5")
    assert (type(daily), daily) == (float, 0.05)
    assert (type(weekly), weekly) == (float, 0.02)


@pytest.mark.parametrize(
    "argv, files, env, expected",
    [
        pytest.param(
            FIT + ["--config", "{tmp}/run.cfg"],
            {"run.cfg": "# run\nseed = x\n"}, {}, "run.cfg line 2: seed", id="config-seed",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", *SMALL_SCAN],
            {}, {"LOGPERIODIC_WORKERS": "abc"}, "LOGPERIODIC_WORKERS", id="workers-env",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "2001-13-01"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {}, "2001-13-01",
            id="review-date",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,x,5\n"}, {}, "non-integer",
            id="scan-non-integer",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.0,0.0,0,0,0\n"}, {}, "inconsistent",
            id="scan-zero-total",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,-0.2,0.0,-1,0,5\n"}, {}, "inconsistent",
            id="scan-negative-count",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.0,1.8,0,9,5\n"}, {}, "inconsistent",
            id="scan-counts-exceed-total",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n2001-08-13,420,0.0,0.0,0,0,5\n"},
            {}, "repeated t2 in indicator row '2001-08-13,420,0.0,0.0,0,0,5'", id="scan-repeated-t2",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.6,0.0,4,0,5\n"}, {},
            "ratio cells disagree with counts in indicator row '2001-08-13,420,0.6,0.0,4,0,5'",
            id="scan-ratio-disagrees",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", "--workers", "-3", *SMALL_SCAN],
            {}, {}, "--workers: workers must be >= 1, got -3", id="workers-flag",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", "--config", "{tmp}/run.cfg", *SMALL_SCAN],
            {"run.cfg": "workers = 0\n"}, {}, "run.cfg line 1: workers must be >= 1", id="workers-config",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", *SMALL_SCAN],
            {}, {"LOGPERIODIC_WORKERS": "0"}, "LOGPERIODIC_WORKERS: workers must be >= 1",
            id="workers-env-zero",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", "--format", "xml", *SMALL_SCAN],
            {}, {}, "--format: format must be csv or json, got 'xml'", id="format-flag",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "1", "--config", "{tmp}/run.cfg", *SMALL_SCAN],
            {"run.cfg": "format = yaml\n"}, {}, "run.cfg line 1: format must be csv or json",
            id="format-config",
        ),
        pytest.param(
            ["fit", "--input", "{csv}", "--t1", "320", "--t2", "419", "--stride", "0"],
            {}, {}, "--stride: stride must be >= 1, got 0", id="stride-flag",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "stride = -1\n", "scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"},
            {}, "run.cfg line 1: stride must be >= 1, got -1", id="stride-config",
        ),
        pytest.param(
            FIT + ["--seed", "-1"], {}, {}, "seed must be >= 0, got -1", id="seed-fit",
        ),
        pytest.param(
            ["scan", "--input", "{csv}", "--seed", "-1", *SMALL_SCAN],
            {}, {}, "seed must be >= 0, got -1", id="seed-scan",
        ),
        pytest.param(
            FIT + ["--config", "{tmp}/run.cfg"], {"run.cfg": "seed = -3\n"}, {},
            "seed must be >= 0, got -3", id="seed-config",
        ),
        pytest.param(
            SYNTH + ["--noise-sigma", "0.01", "--seed", "-1"], {}, {}, "seed must be >= 0, got -1",
            id="seed-synth",
        ),
        pytest.param(
            FIT + ["--damping-floor", "nan"], {}, {}, "damping_floor must be finite, got nan",
            id="damping-floor-nan",
        ),
        pytest.param(
            FIT + ["--tc-extension", "inf"], {}, {}, "tc_extension must be finite, got inf",
            id="tc-extension-inf",
        ),
        pytest.param(
            FIT + ["--omega-max", "inf"], {}, {}, "omega_max must be finite, got inf", id="omega-max-inf",
        ),
        pytest.param(
            FIT + ["--filter-m-min", "nan"], {}, {}, "filter m_min must not be nan", id="filter-m-min-nan",
        ),
        pytest.param(
            FIT + ["--max-rel-error", "nan"], {}, {}, "filter max_rel_error must not be nan",
            id="max-rel-error-nan",
        ),
        pytest.param(
            FIT + ["--oscillation-threshold", "nan"], {}, {},
            "filter oscillation_threshold must not be nan", id="oscillation-threshold-nan",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--threshold", "nan"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "expected a finite number, got nan", id="threshold-nan",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "threshold = 7\n", "scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "run.cfg line 1: threshold must lie in (0, 1), got 7.0", id="threshold-above-one-config",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "# run\nthreshold = nan\n", "scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"},
            {}, "run.cfg line 2: threshold: expected a finite number, got nan", id="threshold-nan-config",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--sign", "bogus"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "--sign: sign must be positive or negative, got 'bogus'", id="sign-flag",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "sign = up\n", "scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "run.cfg line 1: sign must be positive or negative, got 'up'", id="sign-config",
        ),
        pytest.param(
            ["ingest", "--input", "{csv}", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "# run\nmax_window = 200\n"}, {}, "run.cfg line 2: max_window is not a setting of ingest",
            id="config-key-of-another-subcommand",
        ),
        pytest.param(
            ["resample", "--input", "{csv}", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "stride = 5\n# again\nstride = 10\n"}, {},
            "run.cfg line 3: stride is set again, first on line 1", id="config-key-set-twice",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410", "--threshold", "0"],
            {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "--threshold: threshold must lie in (0, 1), got 0.0", id="threshold-zero-flag",
        ),
        pytest.param(
            SYNTH + ["--noise-sigma", "nan"], {}, {}, "noise_sigma must be finite and >= 0, got nan",
            id="noise-sigma-nan",
        ),
        pytest.param(
            SYNTH + ["--config", "{tmp}/run.cfg"], {"run.cfg": "# synth\nstart_date = 2001-13-01\n"}, {},
            "run.cfg line 2: start_date '2001-13-01' is not a YYYY-MM-DD date", id="start-date-config",
        ),
        pytest.param(
            ["classify", "--input", "{csv}", "--scan-table", "{tmp}/scan.csv", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "review_last = 470\nreview_first = 2001-02-30\n",
             "scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "run.cfg line 2: review_first '2001-02-30' is not an index or a YYYY-MM-DD date",
            id="review-first-config",
        ),
        pytest.param(
            ["classify", "--input", "{csv}", "--scan-table", "{tmp}/scan.csv", "--review-first", "410",
             "--review-last", "4l0"], {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "--review-last: review_last '4l0' is not an index or a YYYY-MM-DD date", id="review-last-flag",
        ),
        pytest.param(
            FIT + ["--config", "{tmp}/run.cfg"], {"run.cfg": "filter_omega_min = 30\n"}, {},
            "filter ranges must not be empty", id="filter-omega-empty-config",
        ),
        pytest.param(
            FIT + ["--filter-omega-max", "inf"], {}, {}, "not a band the Lomb test can scan",
            id="filter-omega-max-inf",
        ),
        pytest.param(
            FIT + ["--filter-omega-min", "10", "--filter-omega-max", "10"], {}, {},
            "not a band the Lomb test can scan", id="filter-omega-one-point",
        ),
        pytest.param(
            FIT + ["--config", "{tmp}/run.cfg"], {"run.cfg": "filter_omega_min = -1\n"}, {},
            "not a band the Lomb test can scan", id="filter-omega-negative-config",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/latin1.csv"],
            {"latin1.csv": b"date,close\n2020-01-02,100\n2020-01-03,10\xe9\n"}, {},
            "latin1.csv is not UTF-8 text: byte 0xe9 at offset 39", id="input-not-utf8",
        ),
        pytest.param(
            ["ingest", "--input", "{csv}", "--config", "{tmp}/run.cfg"],
            {"run.cfg": b"# r\xe9glages\nseed = 1\n"}, {}, "run.cfg is not UTF-8 text: byte 0xe9",
            id="config-not-utf8",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER.encode() + b"# \xe9\n2001-08-13,420,0.8,0.0,4,0,5\n"}, {},
            "scan.csv is not UTF-8 text: byte 0xe9", id="scan-table-not-utf8",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": b"\xef\xbb\xbf" + SCAN_HEADER.encode() + b"2001-08-13,420,0.0,0.0,-1,0,5\n"},
            {}, "inconsistent counts", id="scan-table-bom",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"],
            {"scan.csv": SCAN_HEADER + "  # indented comment\n2001-08-13,420,0.0,0.0,-1,0,5\n"}, {},
            "inconsistent counts", id="scan-table-indented-comment",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/commented.csv"],
            {"commented.csv": "# config: {}\ndate,close\n2020-01-02,100\n\n2020-01-03,-5\n"}, {},
            "line 5: non-positive close '-5'", id="ingest-file-line-number",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/nan.csv"],
            {"nan.csv": "date,close\n2020-01-02,100\n2020-01-03,nan\n"}, {},
            "line 3: non-finite close 'nan'", id="ingest-nan-close",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/overflow.csv"],
            {"overflow.csv": "date,close\n2020-01-02,100\n2020-01-03,1e400\n"}, {},
            "line 3: non-finite close '1e400'", id="ingest-overflowing-close",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/one_cell.csv"],
            {"one_cell.csv": "date,close\n2020-01-02,100\n2020-01-03\n"}, {},
            "line 3: expected 'date,close', got '2020-01-03'", id="ingest-one-cell-row",
        ),
        pytest.param(
            ["ingest", "--input", "{tmp}/separator.csv"],
            {"separator.csv": "date,close\n2020-01-02,3,386.15\n"}, {},
            "line 2: expected 'date,close', got '2020-01-02,3,386.15'", id="ingest-thousands-separator",
        ),
        pytest.param(
            ["ingest", "--input", "{csv}", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "# run\nstride 5\n"}, {}, "run.cfg line 2: expected 'key = value'",
            id="config-without-equals",
        ),
        pytest.param(
            ["ingest", "--input", "{csv}", "--config", "{tmp}/run.cfg"],
            {"run.cfg": "strides = 5\n"}, {}, "run.cfg line 1: unknown config key 'strides'",
            id="config-unknown-key",
        ),
        pytest.param(
            ["resample", "--input", "{csv}", "--stride", "1"], {}, {}, "resample needs --stride >= 2",
            id="resample-stride-one",
        ),
        pytest.param(
            FIT + ["--tc-extension", "0.0001"], {}, {}, "tc search interval collapsed",
            id="fit-tc-interval-collapses",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"], {"scan.csv": "# no rows\n\n"}, {},
            "empty indicator table", id="scan-table-empty",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"], {"scan.csv": "t2,ci\n420,0.8\n"}, {},
            "unexpected indicator table header 't2,ci'", id="scan-table-wrong-header",
        ),
        pytest.param(
            CLASSIFY + ["--review-first", "410"], {"scan.csv": SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0\n"},
            {}, "malformed indicator row '2001-08-13,420,0.8,0.0,4,0'", id="scan-table-short-row",
        ),
    ],
)
def test_malformed_input_is_one_line_validation_error(
    argv, files, env, expected, bubble_csv, tmp_path, monkeypatch, capsys
):
    path, _ = bubble_csv
    for name, content in files.items():
        if isinstance(content, str):
            content = content.encode("utf-8")
        (tmp_path / name).write_bytes(content)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main([arg.format(csv=path, tmp=tmp_path) for arg in argv])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["ingest", "--input", "{tmp}/nope.csv"], 3, id="missing-input"),
        pytest.param(["ingest", "--input", "{tmp}"], 3, id="input-is-directory"),
        pytest.param(["ingest", "--input", "{csv}", "--output", "{tmp}/missing/out.csv"], 3,
                     id="output-into-missing-directory"),
        pytest.param(["classify", "--input", "{csv}", "--scan-table", "{tmp}/missing.csv",
                      "--review-first", "410", "--review-last", "470"], 3, id="missing-scan-table"),
        pytest.param(["scan", "--input", "{csv}", "--max-window", "120", "--min-window", "40",
                      "--window-step", "20", "--t2-first", "10", "--t2-last", "20",
                      "--seed", "1", "--workers", "1"], 5, id="scan-without-valid-endpoint"),
        pytest.param(["fit", "--input", "{csv}", "--t1", "320", "--t2", "419", "--damping-floor", "1e12",
                      "--max-evaluations", "100", "--restarts", "1", "--seed", "0"], 5,
                     id="fit-without-admissible-candidate"),
        pytest.param(["fit", "--input", "{csv}", "--t1", "320", "--t2", "419",
                      "--filter-m-min", "0.9", "--filter-m-max", "0.1"], 4, id="fit-with-empty-filter-range"),
        pytest.param(["fit", "--input", "{csv}", "--t1", "320"], 2, id="missing-required-flag"),
        pytest.param(["scan", "--input", "{csv}", "--t2-first", "419", "--t2-last", "419"], 2,
                     id="scan-without-seed"),
        pytest.param(["refit", "--input", "{csv}"], 2, id="unknown-subcommand"),
        pytest.param(SYNTH + ["--start-date", "9999-12-30"], 4, id="synth-dates-past-date-max"),
        pytest.param(["ingest"], 4, id="ingest-without-input"),
    ],
)
def test_exit_codes_end_without_traceback(argv, expected, bubble_csv, tmp_path, capsys):
    path, _ = bubble_csv
    try:
        code = main([arg.format(csv=path, tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert err.startswith("usage: ")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which RFC 8259 has no token for."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_outputs_are_strict_json(bubble_csv, tmp_path, capsys):
    """Non-finite floats are written as "nan", "inf" or "-inf", and a config
    file made from an embedded config reproduces the output."""
    path, _ = bubble_csv
    (tmp_path / "scan.csv").write_text(SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n", encoding="utf-8")
    no_rel_error = ["--max-rel-error", "inf"]
    short_fit = ["fit", "--input", str(path), "--t1", "0", "--t2", "9", "--seed", "1", *no_rel_error]
    records = {}
    for name, argv in {
        "fit": short_fit,
        "scan": ["scan", "--input", str(path), "--seed", "1", "--workers", "1", "--format", "json",
                 *SMALL_SCAN, *no_rel_error],
        "classify": [arg.format(csv=path, tmp=tmp_path) for arg in CLASSIFY] + ["--review-first", "410"],
    }.items():
        assert main(argv) == 0
        records[name] = _strict_json(capsys.readouterr().out)
    fit_record = records["fit"]
    assert fit_record["qualification"]["ar1_coefficient"] is None  # under 12 points: no AR(1) test
    assert fit_record["config"]["max_rel_error"] == records["scan"]["config"]["max_rel_error"] == "inf"
    assert records["classify"]["crash_type"] == "Endogenous"

    lines = [f"{key} = {value}" for key, value in fit_record["config"].items() if value is not None]
    (tmp_path / "embedded.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["fit", "--t1", "0", "--t2", "9", "--config", str(tmp_path / "embedded.cfg")]) == 0
    assert _strict_json(capsys.readouterr().out) == fit_record

    scan_cfg = f"max_rel_error = {fit_record['config']['max_rel_error']}\n"
    (tmp_path / "scan.cfg").write_text(scan_cfg, encoding="utf-8")
    assert main(["scan", "--input", str(path), "--seed", "1", "--workers", "1", *SMALL_SCAN,
                 "--config", str(tmp_path / "scan.cfg")]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert _strict_json(header.removeprefix("# config: "))["max_rel_error"] == "inf"


def test_every_output_reproduces_itself_from_its_embedded_config(bubble_csv, tmp_path, capsys):
    """A config file made of an output's embedded config, and nothing else,
    rewrites that output byte for byte: every setting the output depends
    on is recorded, required ones included."""
    path, _ = bubble_csv
    (tmp_path / "scan.csv").write_text(SCAN_HEADER + "2001-08-13,420,0.8,0.0,4,0,5\n", encoding="utf-8")
    runs = [
        ["ingest", "--input", str(path)],
        ["resample", "--input", str(path), "--stride", "5"],
        SYNTH + ["--C1", "0.01", "--noise-sigma", "0.01", "--noise-phi", "0.3", "--start-date", "2001-02-05",
                 "--seed", "5"],
        [arg.format(csv=path) for arg in FIT] + [*FAST, "--seed", "3", "--max-rel-error", "inf"],
        ["scan", "--input", str(path), "--seed", "1", "--workers", "1", *SMALL_SCAN],
        [arg.format(csv=path, tmp=tmp_path) for arg in CLASSIFY]
        + ["--review-first", "410", "--sign", "negative", "--threshold", "0.1"],
    ]
    for argv in runs:
        assert main(argv) == 0
        out = capsys.readouterr().out
        if out.startswith("# config: "):
            config = _strict_json(out.splitlines()[0].removeprefix("# config: "))
        else:
            config = _strict_json(out)["config"]
        lines = [f"{key} = {value}" for key, value in config.items() if value is not None]
        (tmp_path / "embedded.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([argv[0], "--config", str(tmp_path / "embedded.cfg")]) == 0, argv[0]
        assert capsys.readouterr().out == out, argv[0]


def test_cold_import_loads_no_scipy():
    # Importing scipy.signal alone takes over a second, which every CLI call
    # and pool worker would pay; the library must not pull scipy in. The
    # process pool and its multiprocessing modules load only when a scan
    # starts a pool.
    src = str(Path(logperiodic.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, logperiodic, logperiodic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"

