// fm_bench: runs one benchmark workload as one deployment and streams
// its records (see workloads.h) on stdout. run.py drives it; by hand:
//
//   fm_bench --workload open_storm --seed 1 --seconds 5 --work DIR
//            [--trace --spans DIR/trace.json] [--setup-only] [--cpu N]
#include <sched.h>

#include <cstdio>
#include <string>

#include "perfbench/workloads.h"
#include "src/common/strings.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "fm_bench: %s\nusage: fm_bench --workload NAME --seed N "
               "--seconds S --work DIR [--trace] [--spans FILE] "
               "[--setup-only] [--cpu N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using griddles::strings::parse_double;
  using griddles::strings::parse_int;
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      const auto seed = parse_int(value());
      if (!seed || *seed < 0) return usage("--seed needs a whole number");
      args.seed = static_cast<std::uint64_t>(*seed);
    } else if (flag == "--seconds") {
      const auto seconds = parse_double(value());
      if (!seconds || *seconds <= 0) return usage("--seconds must be > 0");
      args.seconds = *seconds;
    } else if (flag == "--work") {
      args.work_dir = value();
    } else if (flag == "--spans") {
      args.spans_path = value();
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--cpu") {
      // Pin the whole process (every thread it will start) to one CPU.
      const auto cpu = parse_int(value());
      if (!cpu || *cpu < 0 || *cpu >= CPU_SETSIZE) {
        return usage("--cpu needs a CPU number");
      }
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<int>(*cpu), &set);
      if (sched_setaffinity(0, sizeof(set), &set) != 0) {
        return usage("cannot pin to the --cpu given");
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    return usage("--workload and --work are required");
  }
  const griddles::Status status = perfbench::run_workload(args);
  if (!status.is_ok()) {
    std::fprintf(stderr, "fm_bench %s: %s\n", args.workload.c_str(),
                 status.to_string().c_str());
    return 1;
  }
  perfbench::emit("D");
  return 0;
}
