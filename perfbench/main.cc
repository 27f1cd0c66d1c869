// Repository benchmark: one named workload per run, inputs made from
// --seed, --seconds of timed work, output checks, and one JSON result line.
//
//   dtucker_perfbench --workload <cold-solve|rank-sweep|sharded-file|
//                     serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//                     [--corrupt <check>]
//
// --trace 0 reports the workload's end-to-end metrics with tracing off.
// --trace 1 reports every per-layer metric: the named workload's layer
// group gets the full --seconds budget and the other groups a short pass,
// so each traced run carries the whole layer table. Workload definitions,
// thread budgets and the metric map live in BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: dtucker_perfbench --workload <cold-solve|"
               "rank-sweep|sharded-file|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt <check>]\n",
               why);
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) Usage("--trace takes 0 or 1");
    } else if (flag == "--corrupt") {
      a.corrupt = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

using RunFn = RunResult (*)(const Args&);
using TraceFn = void (*)(const Args&, double, RunResult*);
struct Workload {
  const char* name;
  RunFn run;
  TraceFn trace;
};
constexpr Workload kWorkloads[] = {
    {"cold-solve", RunColdSolve, TraceColdSolve},
    {"rank-sweep", RunRankSweep, TraceRankSweep},
    {"sharded-file", RunShardedFile, TraceShardedFile},
    {"serve-mixed", RunServeMixed, TraceServeMixed},
};

// Timed budget of the layer groups a traced run measures besides its own:
// one pass for the BENCHMARK.json workloads, a few seconds for the two that
// are measured only this way (see perfbench/README.md): sharded-file for a
// handful of solves, serve-mixed for its queue, cache and eviction counts.
double SideGroupSeconds(const std::string& workload) {
  if (workload == "serve-mixed") return 5.0;
  if (workload == "sharded-file") return 2.0;
  return 0.1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) selected = &w;
  }
  if (selected == nullptr) Usage(("unknown workload " + args.workload).c_str());
  SetCheckContext(args);
  dtucker::SetTraceEnabled(false);

  RunResult result;
  if (!args.trace) {
    result = selected->run(args);
  } else {
    // Room for one whole layered solve's spans, the library's included.
    dtucker::SetTraceBufferCapacity(std::size_t{1} << 18);
    for (const Workload& w : kWorkloads) {
      w.trace(args, &w == selected ? args.seconds : SideGroupSeconds(w.name),
              &result);
    }
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": %s}\n",
      result.attempted, result.failed, result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
