// The traced pass: spans around in-process replays of each op through
// the public calls of src/analysis and src/service, recorded from the
// benchmark's own code (nothing inside src/ is instrumented).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perf.h"
#include "workloads.h"

namespace perf {

/// Spans kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    std::uint32_t op = 0;
  };

  /// Records a span of @p dur_us starting at @p start_us (microseconds
  /// on the tracer's clock) under @p parent (-1 = a root).
  int add(std::string name, double start_us, double dur_us, int parent);
  double now_us() const { return us_between(origin_, Clock::now()); }
  void next_op() { ++op_; }

  void write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t op_ = 0;
};

/// What the workloads hand the traced pass about one real op.
struct OpRecord {
  char kind = 'a';
  double rt_ms = 0;        ///< the real round trip
  std::string body;        ///< response body / CLI stdout
  std::uint64_t files = 0;     ///< daemon response: files in the batch
  std::uint64_t mem_hits = 0;  ///< daemon response: memory-cache hits
  double cli_cpu_ms = 0;   ///< cold_cli: child CPU time
  Daemon::ProcCounters pncd_delta;  ///< daemon workloads: /proc deltas
};

/// Per-workload in-process replay of each op.
class Replayer {
 public:
  virtual ~Replayer() = default;
  /// Replays @p op through the layers, under a root span for the op.
  virtual void replay(const OpRecord& op) = 0;
  /// Turns the spans and counters into per-layer metrics in run.layers.
  virtual void finish(Run& run) = 0;
};

std::unique_ptr<Replayer> make_replayer(const Options& options,
                                        const Inputs& inputs,
                                        const Daemon* daemon);

}  // namespace perf
