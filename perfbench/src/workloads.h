// The three workloads: generation, set-up, the timed closed loops and the
// output checks.  Each returns a Run holding raw samples; run.py turns
// them into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "perf.h"

namespace perf {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;   ///< scratch root for inputs, caches, sockets
  std::string tools;  ///< directory holding pnc_analyze and pncd
  std::string out;    ///< raw-result JSON path
};

/// Samples of one op kind.
struct KindSamples {
  std::string label;
  std::vector<double> lat_ms;  ///< untraced round trips
  std::vector<double> traced_ms;  ///< round trips in the traced half
  double files_per_op = 0;
  double bytes_per_op = 0;
};

struct Run {
  Inputs in;
  std::map<char, KindSamples> kinds;  ///< 'a', 'b', 'c'
  std::vector<double> setup_s;
  double throughput_ops = 0;
  double throughput_s = 0;
  long peak_rss_kib = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages
  /// One body per op kind, saved for run.py's per-file code check.
  std::vector<std::string> bodies;
  std::vector<std::string> body_scopes;  ///< path prefix each body covers
  std::vector<std::string> body_formats;  ///< "json" or "sarif", per body
  double sheds = 0;
  double deadline_rejects = 0;
  bool scrape_ok = true;
  JsonOut layers;  ///< per-layer metrics (traced runs only)

  /// Counts one op; a false @p ok records @p what as a failure.
  void check(bool ok, const std::string& what);
};

Run run_workload(const Options& options);

}  // namespace perf
