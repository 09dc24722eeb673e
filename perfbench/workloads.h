// The benchmark's workloads, each run as one deployment in this process.
//
// A run streams one text record per line on stdout, each written with a
// single write(2) so a crash loses no completed record:
//
//   R <setup_s>               set-up done, <setup_s> seconds after the
//                             process started; the first timed
//                             operation follows
//   B <body> <planned_ops>    a timed body of fixed work starts
//   O <body> <ns> <bytes> <v>  one operation ended: v=1 verified,
//                             0 failed, 2 output mismatch
//   X <what>                  an output mismatch outside one operation
//   E <body> <wall_s> <cpu_s> <verified_bytes>  the body ended
//   P <peak_rss_mb>           peak resident set after each body
//   M <name> <value>          a per-layer metric (traced runs)
//   D                         the run finished and tore down cleanly
//
// run.py turns these into the end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;       // decorators + spans on
  bool setup_only = false;  // exit right after the R record
  std::string work_dir;     // private scratch directory of this run
  std::string spans_path;   // traced runs: Chrome trace output
};

/// Runs `args.workload` (paper_replay, buffer_stream, staged_fanout,
/// open_storm, or probe_selfcheck).
griddles::Status run_workload(const RunArgs& args);

/// Writes one record line to stdout (printf format, newline appended).
void emit(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
