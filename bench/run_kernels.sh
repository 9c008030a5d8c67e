#!/usr/bin/env bash
# Kernel perf trajectory: build the bench tree with the plain Release flags
# (the same ones perfbench uses; the GEMM picks its SIMD width at run time),
# run the kernel microbenchmarks with JSON output, and append a distilled
# record (GFLOP/s per benchmark) to BENCH_kernels.json at the repo root.  Run
# after kernel changes so future PRs can compare against every prior
# recorded run.
#
# Usage: bench/run_kernels.sh [label]      (label defaults to git short SHA)
# Env:   BUILD_DIR (default build-bench), MSA_THREADS (default: all cores)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build-bench}
LABEL=${1:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabelled)}

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target bench_kernels --target bench_dist_step >/dev/null

RAW="$BUILD/bench_kernels_raw.json"
"$BUILD/bench/bench_kernels" \
  --benchmark_filter='BM_Gemm|BM_GemmSkinny|BM_Conv2D|BM_ResNetLiteStep|BM_Transpose|BM_Im2Col' \
  --benchmark_format=json >"$RAW"

RAW_DIST="$BUILD/bench_dist_step_raw.json"
"$BUILD/bench/bench_dist_step" \
  --benchmark_filter='BM_DistStep' \
  --benchmark_format=json >"$RAW_DIST"

python3 - "$RAW" "$RAW_DIST" BENCH_kernels.json "$LABEL" <<'PY'
import json, os, sys

raw_paths, out_path, label = sys.argv[1:3], sys.argv[3], sys.argv[4]
raw = json.load(open(raw_paths[0]))

results = {}
for raw_path in raw_paths:
    for b in json.load(open(raw_path)).get("benchmarks", []):
        # bench_dist_step reports in ms; normalise everything to ns.
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
        entry = {"real_time_ns": round(b["real_time"] * scale, 1)}
        if "GFLOP/s" in b:
            entry["gflops"] = round(b["GFLOP/s"], 3)
        if "GB/s" in b:
            entry["gbps"] = round(b["GB/s"], 3)
        if "grad GB/s" in b:
            entry["grad_gbps"] = round(b["grad GB/s"], 3)
        # UseRealTime() benchmarks carry a "/real_time" suffix; keep the
        # keys of earlier records.
        results[b["name"].removesuffix("/real_time")] = entry

run = {
    "label": label,
    "date": raw.get("context", {}).get("date", ""),
    "threads": int(os.environ.get("MSA_THREADS", 0)) or None,
    "num_cpus": raw.get("context", {}).get("num_cpus"),
    "build": "Release",
    "results": results,
}

doc = {"runs": []}
if os.path.exists(out_path):
    doc = json.load(open(out_path))
doc["runs"].append(run)
json.dump(doc, open(out_path, "w"), indent=2)
print(f"recorded run '{label}' with {len(results)} benchmarks -> {out_path}")
PY
