// lcbench: the LC-Rec benchmark program.
//
//   lcbench --workload serve_unique|offline_eval --seed N --seconds S
//           --trace 0|1
//
// Untraced runs print the workload's end-to-end metrics; traced runs
// print the per-layer metrics. Either way the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

// Static initialisation runs before main: the closest in-process stand-in
// for the process start time.
const double g_process_start = lcbench::NowSec();

bool ParseArgs(int argc, char** argv, lcbench::Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt->workload = v;
    } else if (k == "--seed") {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      opt->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      opt->trace = v == "1";
    } else {
      std::fprintf(stderr, "lcbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return (opt->workload == "serve_unique" || opt->workload == "offline_eval") &&
         opt->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  lcbench::Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: lcbench --workload serve_unique|offline_eval"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  lcbench::RunResult r;
  if (opt.trace) {
    lcbench::RunLayers(opt, &r);
    lcbench::PrintResult(r);
    return 0;
  }

  // Set-up, repeated: dataset build, fit, serving bring-up and warm-up.
  // setup_s is the median repetition; the first one also covers process
  // start. Only the last system is measured.
  lcbench::UniqueHistories fresh(opt.seed);
  std::unique_ptr<lcbench::System> sys;
  std::vector<double> setups;
  double start = g_process_start;
  for (int i = 0; i < lcbench::kSetups; ++i) {
    sys.reset();
    if (i > 0) start = lcbench::NowSec();
    sys = lcbench::BuildSystem(opt.workload, &fresh);
    setups.push_back(lcbench::NowSec() - start);
  }
  r.Set("setup_s", lcbench::Median(setups), "s");
  if (sys->model->indexing().ConflictCount() != 0) {
    r.Fail("learned index has conflicts");
  }

  if (opt.workload == "serve_unique") {
    lcbench::RunServeUnique(*sys, opt, &fresh, &r);
  } else {
    lcbench::RunOfflineEval(*sys, opt, &r);
  }
  sys->stack.Stop();
  r.Set("peak_rss_mb", lcbench::PeakRssMb(), "MB");
  char buf[128];
  std::snprintf(buf, sizeof(buf), "set-ups: %.3f %.3f %.3f s", setups[0],
                setups[1], setups[2]);
  r.notes.push_back(buf);
  lcbench::PrintResult(r);
  return 0;
}
