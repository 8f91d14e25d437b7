#!/bin/sh
# Run a fixed set of CLI commands against one source tree and keep every
# output, so two trees can be compared byte for byte:
#
#   sh tools/cli_snapshot.sh <src-dir> <out-dir>
#   diff -r <out-dir-a> <out-dir-b>
#
# <src-dir> is the directory that holds the `logperiodic` package (a
# checkout's `src`); <out-dir> must not exist yet. Each command's stdout and
# stderr go to <name>.out and <name>.err, the files it writes keep their
# names, and exit_codes.txt lists `<name> <exit code>` per command. The
# commands run inside <out-dir> with relative paths, so the configuration
# each output embeds is the same whatever the directory is called.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: sh tools/cli_snapshot.sh <src-dir> <out-dir>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir "$2"
cd "$2"

PYTHON=${PYTHON:-python3}
export PYTHONPATH="$src" COLUMNS=80
unset LOGPERIODIC_WORKERS

# run <name> <arg>...: one CLI call, its streams and its exit code
run() {
    name=$1
    shift
    code=0
    "$PYTHON" -m logperiodic "$@" >"$name.out" 2>"$name.err" || code=$?
    echo "$name $code" >>exit_codes.txt
}

SCAN_SMALL="--max-window 120 --min-window 40 --window-step 20 --max-evaluations 600 --restarts 2"
FAST="--max-evaluations 1200 --restarts 3"

run synth synth --tc 430 --m 0.5 --omega 8 --A 8 --B -0.8 --C1 0.027 --C2 0.036 \
    --n 420 --noise-sigma 0.004 --noise-phi 0.4 --seed 11 --output bubble.csv
run synth_defaults synth --tc 430 --m 0.5 --omega 8 --A 8 --B -0.8 --n 100
run resample resample --input bubble.csv --stride 5 --output weekly.csv
run ingest ingest --input weekly.csv

# shellcheck disable=SC2086
run scan_csv scan --input bubble.csv $SCAN_SMALL \
    --t2-first 409 --t2-last 419 --t2-step 5 --seed 42 --workers 2 --output scan.csv
# shellcheck disable=SC2086
run scan_json scan --input bubble.csv $SCAN_SMALL --t2-first 409 --t2-last 419 --t2-step 5 \
    --seed 42 --workers 1 --format json --filter-m-max 0.9 --lomb-alpha 0.1 --output scan.json

printf 'max_evaluations = 1200\nrestarts = 3\nfilter_m_max = 0.9\n' >fit.cfg
run fit_defaults fit --input bubble.csv --t1 320 --t2 419 --output fit_defaults.json
run fit_config fit --input bubble.csv --t1 320 --t2 419 --config fit.cfg --output fit_config.json
run fit_long fit --input bubble.csv --t1 120 --t2 419 --seed 3 --output fit_long.json
run fit_outside fit --input bubble.csv --t1 0 --t2 9999 --seed 1
# a window under 12 points gets no AR(1) test (its coefficient is null), an
# infinite filter bound lands in the embedded config, and a config file may
# set only the subcommand's own settings (resample has no threshold), each once
run fit_short_window fit --input bubble.csv --t1 0 --t2 9 --seed 1
# shellcheck disable=SC2086
run fit_inf_filter fit --input bubble.csv --t1 320 --t2 419 --max-rel-error inf $FAST
printf 'threshold = 7\n' >bad_threshold.cfg
run resample_bad_threshold resample --input bubble.csv --stride 5 --config bad_threshold.cfg
run ingest_fit_config ingest --input weekly.csv --config fit.cfg
printf 'stride = 5\n# again\nstride = 10\n' >stride_twice.cfg
run resample_stride_twice resample --input bubble.csv --config stride_twice.cfg
# integer settings below their least: too few points, a negative window start,
# no restarts
run synth_n_one synth --tc 430 --m 0.5 --omega 8 --A 8 --B -0.8 --n 1
run fit_negative_t1 fit --input bubble.csv --t1 -1 --t2 100
run fit_no_restarts fit --input bubble.csv --t1 320 --t2 419 --restarts 0

# the 420-point bubble followed by a 60-step decline
"$PYTHON" - <<'EOF'
import numpy as np
from logperiodic import PriceSeries, emit_csv, ingest
from logperiodic.synth import trading_dates

with open("bubble.csv", encoding="utf-8") as handle:
    bubble = ingest(handle.read())
rng = np.random.default_rng(99)
post = bubble.log_prices[-1] + np.cumsum(-0.01 + 0.01 * rng.standard_normal(60))
prices = np.exp(np.concatenate([bubble.log_prices, post]))
crash = PriceSeries(prices, trading_dates(bubble.dates[0], 480), 1)
with open("crash.csv", "w", encoding="utf-8") as handle:
    handle.write(emit_csv(crash))
EOF
# shellcheck disable=SC2086
run crash_scan scan --input crash.csv --max-window 120 --min-window 40 --window-step 20 $FAST \
    --t2-first 415 --t2-last 425 --t2-step 5 --seed 42 --workers 2 --output crash_scan.csv
run classify_index classify --input crash.csv --scan-table crash_scan.csv \
    --review-first 410 --review-last 470
first=$("$PYTHON" -c "from logperiodic import ingest; print(ingest(open('crash.csv').read()).dates[410])")
last=$("$PYTHON" -c "from logperiodic import ingest; print(ingest(open('crash.csv').read()).dates[470])")
run classify_dates classify --input crash.csv --scan-table crash_scan.csv \
    --review-first "$first" --review-last "$last"
# a bad date setting in a config file names the file's line
printf '# synth\nstart_date = 2001-13-01\n' >bad_start_date.cfg
run synth_bad_start_date_config synth --tc 430 --m 0.5 --omega 8 --A 8 --B -0.8 --n 100 \
    --config bad_start_date.cfg
printf 'review_first = 410\nreview_last = 2001-02-30\n' >bad_review.cfg
run classify_bad_review_config classify --input crash.csv --scan-table crash_scan.csv \
    --config bad_review.cfg

# reader edge cases: a scan table saved with a UTF-8 byte-order mark, a CSV
# that is not UTF-8 (0xE9 is Latin-1 e-acute), and a bad close on file line 5
# behind a comment line and a blank line
{ printf '\357\273\277'; cat crash_scan.csv; } >crash_scan_bom.csv
run classify_bom classify --input crash.csv --scan-table crash_scan_bom.csv \
    --review-first 410 --review-last 470
printf 'date,close\n2020-01-02,100\n2020-01-03,10\351\n' >latin1.csv
run ingest_latin1 ingest --input latin1.csv
printf '# config: {}\ndate,close\n2020-01-02,100\n\n2020-01-03,-5\n' >commented.csv
run ingest_commented ingest --input commented.csv
# a thousands separator splits a close across two cells
printf 'date,close\n2020-01-02,3,386.15\n2020-01-03,3,390.00\n' >separator.csv
run ingest_separator ingest --input separator.csv
# closes that are not finite numbers: nan, and one that overflows a double
printf 'date,close\n2020-01-02,100\n2020-01-03,nan\n' >nan_close.csv
run ingest_nan_close ingest --input nan_close.csv
printf 'date,close\n2020-01-02,100\n2020-01-03,1e400\n' >overflow_close.csv
run ingest_overflow_close ingest --input overflow_close.csv

# synth again from its own embedded config alone: it rewrites bubble.csv, and
# synth_rewrite.cmp stays empty when the two files are byte-identical
sed -n '1s/^# config: //p' bubble.csv | "$PYTHON" -c '
import json, sys
for key, value in json.load(sys.stdin).items():
    if value is not None:
        print(f"{key} = {value}")' >synth.cfg
mv bubble.csv bubble_first.csv
run synth_from_config synth --config synth.cfg
cmp bubble_first.csv bubble.csv >synth_rewrite.cmp 2>&1 || true

run help --help
for command in ingest resample synth fit scan classify; do
    run "help_$command" "$command" --help
done
