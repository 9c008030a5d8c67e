// msalib benchmark binary: runs one workload and prints its report lines,
// then one result JSON object as the last line of stdout.
//
//   perfbench --workload train_dp --seed 1 --seconds 10 --trace 0
//
// Workloads: train_dp, train_local, train_hybrid (train.cpp) and
// serve_fleet (serve.cpp).  --trace 0 measures the end-to-end metrics with
// the library's tracer disarmed; --trace 1 runs an untraced and a traced
// pass of the same work and reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "obs/trace.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Untraced unless asked: the tracer arms itself when MSA_TRACE is unset,
  // and its counters would then tax every measured call.
  setenv("MSA_TRACE", "0", 1);
  msa::obs::Tracer::instance().configure_from_env();

  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--git-sha") {
      opts.git_sha = val;
    } else if (key == "--src-digest") {
      opts.src_digest = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (opts.workload.empty()) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const perfbench::Result result =
        opts.workload.rfind("train_", 0) == 0 ? perfbench::run_train(opts)
                                              : perfbench::run_serve(opts);
    result.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
