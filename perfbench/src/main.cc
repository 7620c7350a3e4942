// perfbench: one benchmark for train -> artifact -> serve.
//
//   perfbench --workload train_smd|serve_fleet --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--serve-bin PATH]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics. The last stdout line is the
// result object; the exit code is non-zero when any output check failed.
// perfbench/run.py builds this binary and caee_serve, then runs it.

#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train_smd|serve_fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--serve-bin PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  const bool online = args.workload == "serve_fleet";
  if ((!online && args.workload != "train_smd") || (trace != 0 && trace != 1) ||
      !(args.seconds > 0.0) || args.work_dir.empty() ||
      (online && trace == 0 && args.serve_bin.empty())) {
    return Usage();
  }
  // A child that dies mid-write must surface as a failed check, not kill
  // the generator with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  const perfbench::Result result =
      trace == 1 ? perfbench::RunTraced(args)
                 : (online ? perfbench::RunServe(args)
                           : perfbench::RunTrainSmd(args));

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const std::string& p : result.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  bool finite = true;
  for (const auto& m : result.metrics) finite = finite && std::isfinite(m.value);
  if (!finite) std::printf("CHECK FAILED: a metric is not finite\n");
  const bool correct = result.problems.empty() && finite;
  const double attempted = static_cast<double>(std::max<int64_t>(1, result.attempted));
  std::printf("failed_frac %.6g (%lld failed of %lld attempted)\n",
              static_cast<double>(result.failed) / attempted,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, result.attempted));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
