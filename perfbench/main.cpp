// perfbench: the repository benchmark. One command per run:
//
//   perfbench --workload <tenants_wall|shards_sim>
//             --seed <n> --seconds <s> --trace <0|1>
//
// prints one info line (seed, nproc, diagnostics) and, last, one JSON object
// with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
// or with --trace 1 the per-layer ones. Exit status 0 means the run
// completed; a failed correctness check shows as "correct": false. The
// workloads and what each one loads are recorded in perfbench/layers.json.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tenants_wall|shards_sim> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value.c_str());
      if (a.seconds < 1 || a.seconds > 120) Usage("--seconds must be 1..120");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      a.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = Parse(argc, argv);
  // Generator thread plus workers; the simulator is single-threaded.
  int threads = 0;
  if (args.workload == "tenants_wall") {
    threads = 3;
  } else if (args.workload == "shards_sim") {
    threads = 1;
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const int nproc = Nproc();
  if (threads > nproc) {
    std::fprintf(stderr, "perfbench: %s needs %d threads but nproc is %d\n",
                 args.workload.c_str(), threads, nproc);
    return 2;
  }

  perfbench::Report report(args.trace);
  report.Info("nproc", nproc);
  report.Info("threads", threads);
  if (args.workload == "tenants_wall") {
    perfbench::RunTenantsWall(args, report);
  } else {
    perfbench::RunShardsSim(args, report);
  }
  if (args.trace) {
    report.LayerMetric(
        "error_rate",
        static_cast<double>(report.failed()) /
            static_cast<double>(std::max<std::int64_t>(report.attempted(), 1)),
        "ratio");
  }
  report.Print(args);
  return 0;
}
