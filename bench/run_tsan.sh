#!/usr/bin/env bash
# ThreadSanitizer tier-1 run: build with MSA_TSAN and run the comm/dist/fault
# test binaries under it.  The failure model's liveness board (atomic rank
# states, failure epoch, mailbox pokes) is lock-free state shared across every
# rank thread — TSan is the tool that proves the ordering story holds.  The
# CommAsync/Overlap tests exercise the nonblocking request paths (deferred
# drains, abandoned requests after a kill) across those same rank threads.
# TensorPar covers the pool and the GEMM's once-per-process kernel pick,
# which every rank thread and pool worker reads, and Conv2D's sample groups
# on pool threads; LayerOracle and MaxPool2D cover BatchNorm's channel
# groups, ReLU's and Tensor's elementwise chunks and MaxPool's plane
# scatter on pool threads; the im2col/col2im and fp16 rounding properties
# ride along.
#
# Usage: bench/run_tsan.sh [gtest_filter]
# Env:   BUILD_DIR (default build-tsan), MSA_THREADS (default: all cores)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build-tsan}
FILTER=${1:-Comm*:CommAsync*:Dist*:Overlap*:Fault*:FailSlow*:Health*:Resilient*:Runtime*:Mailbox*:Obs*:Critpath*:Flight*:Trace*:Timeseries*:Hybrid*:Mesh*:Serve*:Inference*:TensorPar*:LayerOracle*:MaxPool2D*:*Im2Col*:Half*}

# MSA_OBS=ON (the default, restated here on purpose) keeps the tracer armed
# under TSan: every rank thread writes spans while snapshot/clear run on the
# main thread, so the tracer's locking/quiescence contract gets checked too.
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMSA_TSAN=ON \
  -DMSA_OBS=ON >/dev/null
cmake --build "$BUILD" -j --target msa_tests >/dev/null

# halt_on_error so the first report fails the run; second_deadlock_stack aids
# lock-order diagnostics in the mailbox/liveness interplay.
export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}

"$BUILD"/tests/msa_tests --gtest_filter="$FILTER"
