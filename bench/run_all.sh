#!/usr/bin/env bash
# Sim-clock BENCH gate: regenerate every deterministic BENCH file from the
# bench binaries in <bench-bin-dir> and compare each one byte for byte with
# the committed copy in <repo-root>.  Any change to a simulated number —
# a cost constant, a message count, a collective's schedule — fails it.
#
#   bench_overlap, bench_hybrid, bench_recovery     as is
#   bench_fig3_resnet_scaling                       MSA_SCALING_ONLY=1 (the
#                                                   skipped sections do not
#                                                   feed the JSON)
#   bench_failslow, bench_serve                     MSA_THREADS=1, plus their
#                                                   _timeseries.jsonl sidecars
#
# BENCH_failslow.json is compared after stripping straggler_events,
# straggler_events_max and dropped_spans: they count real-wall-clock recv
# backstop expiries on the host (see bench/run_failslow.sh), not simulated
# behaviour.  A JSON file that differs is reported leaf by leaf by
# bench/benchdiff.py.
#
# Then eight programs run side by side (after bench_failslow, whose recv
# backstop runs on the wall clock) and their stdout is compared with
# bench/golden/<program>.txt: the examples quickstart, remote_sensing,
# covid_xray, ards_imputation, rs_compression and pipeline_parallel (from the
# examples directory next to <bench-bin-dir>), and bench_fig4_gru_ards and
# bench_fig4_covidnet.  pipeline_parallel's rank lines print in thread order,
# so its output is compared sorted (LC_ALL=C).
#
# Writes only to a temporary directory.  Registered with ctest as bench_gate
# (label "bench"): `ctest -L bench` from a build tree.
#
# Usage: bench/run_all.sh <bench-bin-dir> <repo-root>
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <bench-bin-dir> <repo-root>" >&2
  exit 2
fi
BIN=$(cd "$1" && pwd)
EXAMPLES=$(cd "$1/../examples" && pwd)
ROOT=$(cd "$2" && pwd)
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
cd "$OUT"

# run <label> <command...>: run quietly; on failure show the output tail.
run() {
  local label=$1 start=$SECONDS
  shift
  if ! "$@" >"$label.log" 2>&1; then
    echo "FAIL: $label exited non-zero" >&2
    tail -20 "$label.log" >&2
    exit 1
  fi
  echo "ran $label in $((SECONDS - start)) s"
}

run overlap "$BIN/bench_overlap" BENCH_overlap.json
run hybrid "$BIN/bench_hybrid" BENCH_hybrid.json
run recovery "$BIN/bench_recovery" BENCH_recovery.json
run fig3 env MSA_SCALING_ONLY=1 "$BIN/bench_fig3_resnet_scaling" \
  BENCH_resnet_scaling.json
run failslow env MSA_THREADS=1 "$BIN/bench_failslow" BENCH_failslow.json
run serve env MSA_THREADS=1 "$BIN/bench_serve" BENCH_serve.json

strip_wall_clock() {
  python3 - "$1" <<'EOF'
import re, sys
with open(sys.argv[1]) as f:
    text = f.read()
sys.stdout.write(re.sub(
    r'"(?:straggler_events(?:_max)?|dropped_spans)": \d+,?\n\s*', "", text))
EOF
}

status=0
for f in BENCH_overlap.json BENCH_hybrid.json BENCH_recovery.json \
         BENCH_resnet_scaling.json BENCH_failslow.json \
         BENCH_failslow_timeseries.jsonl BENCH_serve.json \
         BENCH_serve_timeseries.jsonl; do
  if [ "$f" = BENCH_failslow.json ]; then
    strip_wall_clock "$f" >"$f.sim"
    strip_wall_clock "$ROOT/$f" >"$f.committed.sim"
    fresh=$f.sim committed=$f.committed.sim
  else
    fresh=$f committed=$ROOT/$f
  fi
  if cmp -s "$fresh" "$committed"; then
    echo "match: $f"
  else
    echo "FAIL: $f differs from the committed copy (committed -> fresh):" >&2
    python3 "$ROOT/bench/benchdiff.py" "$committed" "$fresh" >"$f.diff" || true
    head -40 "$f.diff" | cut -c1-200 >&2
    if [ "$(wc -l <"$f.diff")" -gt 40 ]; then
      echo "  ..." >&2
      tail -1 "$f.diff" >&2
    fi
    status=1
  fi
done

programs=(quickstart remote_sensing covid_xray ards_imputation rs_compression
          pipeline_parallel bench_fig4_gru_ards bench_fig4_covidnet)
start=$SECONDS
pids=()
for p in "${programs[@]}"; do
  case $p in
    bench_*) exe=$BIN/$p ;;
    *) exe=$EXAMPLES/$p ;;
  esac
  "$exe" >"$p.txt" 2>"$p.err" &
  pids+=($!)
done
for i in "${!programs[@]}"; do
  if ! wait "${pids[$i]}"; then
    echo "FAIL: ${programs[$i]} exited non-zero" >&2
    tail -20 "${programs[$i]}.err" >&2
    status=1
  fi
done
echo "ran ${#programs[@]} programs in $((SECONDS - start)) s"
LC_ALL=C sort pipeline_parallel.txt >pipeline_parallel.sorted
mv pipeline_parallel.sorted pipeline_parallel.txt
for p in "${programs[@]}"; do
  if cmp -s "$p.txt" "$ROOT/bench/golden/$p.txt"; then
    echo "match: $p stdout"
  else
    echo "FAIL: $p stdout differs from bench/golden/$p.txt" >&2
    diff "$ROOT/bench/golden/$p.txt" "$p.txt" | head -20 | cut -c1-200 >&2 || true
    status=1
  fi
done
exit $status
