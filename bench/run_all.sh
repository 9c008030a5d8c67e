#!/usr/bin/env bash
# Sim-clock BENCH gate: regenerate every deterministic BENCH file from the
# bench binaries in <bench-bin-dir>, compare each one byte for byte with
# the committed copy in <repo-root>, and check the shape claims of
# bench/claims.py on the fresh files.  Any change to a simulated number —
# a cost constant, a message count, a collective's schedule — fails the
# compare; a change that breaks a paper's shape also names the claim.
#
# The committed files are made at MSA_THREADS=1.  To regenerate one, run
# its line from the repo root (bench_failslow and bench_serve also write
# their _timeseries.jsonl sidecars):
#
#   MSA_THREADS=1 build/bench/bench_overlap BENCH_overlap.json
#   MSA_THREADS=1 build/bench/bench_hybrid BENCH_hybrid.json
#   MSA_THREADS=1 build/bench/bench_recovery BENCH_recovery.json
#   MSA_THREADS=1 MSA_SCALING_ONLY=1 build/bench/bench_fig3_resnet_scaling \
#     BENCH_resnet_scaling.json     (the skipped sections do not feed it)
#   MSA_THREADS=1 build/bench/bench_failslow BENCH_failslow.json
#   MSA_THREADS=1 build/bench/bench_serve BENCH_serve.json
#
# The gate runs the same commands at MSA_THREADS=8, so every match also
# proves that the results do not depend on the thread count.  A JSON file
# that differs is reported leaf by leaf by bench/benchdiff.py, and the
# claims are checked even then.
#
# Then sixteen programs run side by side (after bench_failslow, whose recv
# backstop runs on the wall clock) and their stdout is compared with
# bench/golden/<program>.txt: the examples quickstart, remote_sensing,
# covid_xray, ards_imputation, rs_compression and pipeline_parallel (from the
# examples directory next to <bench-bin-dir>), bench_fig4_gru_ards and
# bench_fig4_covidnet, and eight benches gated on their stdout alone:
# bench_fig1_gce_collectives (E2), bench_fig2_placement (E3),
# bench_fig3_qasvm (E6), bench_module_roofline (E10), bench_nam_staging
# (E11), bench_table1_dam (E7/E1), bench_batch_system (E13) and
# bench_cloud_interop (E14).  pipeline_parallel's rank lines print in thread
# order, so its output is compared sorted (LC_ALL=C).  A golden file is the
# program's stdout at MSA_THREADS=1 (the gate runs them at the default pool
# size), e.g. from the repo root:
#
#   MSA_THREADS=1 build/bench/bench_table1_dam >bench/golden/bench_table1_dam.txt
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

# run <label> <command...>: run one bench quietly at MSA_THREADS=8; on
# failure show the output tail.
run() {
  local label=$1 start=$SECONDS
  shift
  if ! MSA_THREADS=8 "$@" >"$label.log" 2>&1; then
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
run failslow "$BIN/bench_failslow" BENCH_failslow.json
run serve "$BIN/bench_serve" BENCH_serve.json

status=0
for f in BENCH_overlap.json BENCH_hybrid.json BENCH_recovery.json \
         BENCH_resnet_scaling.json BENCH_failslow.json \
         BENCH_failslow_timeseries.jsonl BENCH_serve.json \
         BENCH_serve_timeseries.jsonl; do
  if cmp -s "$f" "$ROOT/$f"; then
    echo "match: $f"
  else
    echo "FAIL: $f differs from the committed copy (committed -> fresh):" >&2
    python3 "$ROOT/bench/benchdiff.py" "$ROOT/$f" "$f" >"$f.diff" || true
    head -40 "$f.diff" | cut -c1-200 >&2
    if [ "$(wc -l <"$f.diff")" -gt 40 ]; then
      echo "  ..." >&2
      tail -1 "$f.diff" >&2
    fi
    status=1
  fi
done
python3 "$ROOT/bench/claims.py" . || status=1

programs=(quickstart remote_sensing covid_xray ards_imputation rs_compression
          pipeline_parallel bench_fig4_gru_ards bench_fig4_covidnet
          bench_fig1_gce_collectives bench_fig2_placement bench_fig3_qasvm
          bench_module_roofline bench_nam_staging bench_table1_dam
          bench_batch_system bench_cloud_interop)
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
