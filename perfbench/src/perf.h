// Shared plumbing for the pnc_perf load generator: seeded randomness,
// digests, file IO, child processes, the pncd daemon handle, and the raw
// JSON the Python front end (perfbench/run.py) turns into metrics.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/client.h"

namespace perf {

// ---------------------------------------------------------------------------
// Randomness and digests.  Both are implemented here, not borrowed from the
// library or <random>, so the generated inputs depend only on --seed.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Streaming 64-bit FNV-1a.
class Digest {
 public:
  void add(std::string_view bytes);
  void add_u64(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(std::string_view bytes);
std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Time.

using Clock = std::chrono::steady_clock;
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Files.

void write_file(const std::string& path, std::string_view bytes);
std::string read_file(const std::string& path);
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);

// ---------------------------------------------------------------------------
// Child processes.

struct ChildResult {
  int exit_code = -1;       ///< -1 when the child died on a signal
  double wall_ms = 0;       ///< spawn -> reaped
  double cpu_ms = 0;        ///< user + system time of the child
  long max_rss_kib = 0;     ///< ru_maxrss of the child
  std::string out;          ///< captured standard output
};

/// Runs @p argv to completion, capturing stdout (stderr is discarded).
ChildResult run_child(const std::vector<std::string>& argv);

/// A running pncd.  Spawned unsharded with default flags apart from its
/// socket, cache directory and log destination; stopped with SIGTERM
/// (SIGKILL after a grace period) and always reaped.
class Daemon {
 public:
  Daemon(const std::string& pncd, const std::string& socket,
         const std::string& cache_dir, const std::string& log_file);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Milliseconds from spawn to the first answered PING.
  double ready_ms() const { return ready_ms_; }
  std::unique_ptr<pnlab::service::Client> connect() const;
  void stop();

  /// VmHWM from /proc/<pid>/status, in KiB.
  long peak_rss_kib() const;
  struct ProcCounters {
    double cpu_ms = 0;          ///< utime + stime
    std::uint64_t wchar = 0;    ///< bytes passed to write-like calls
    std::uint64_t syscw = 0;    ///< write-like system calls
  };
  ProcCounters counters() const;
  /// pnc_requests_shed_total + pnc_deadline_rejects_total from the admin
  /// socket's /metrics; false when the scrape failed.
  bool scrape(double* sheds, double* deadline_rejects) const;

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double ready_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Raw results: a flat JSON object built key by key.

class JsonOut {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void nums(const std::string& key, const std::vector<double>& v);
  void strs(const std::string& key, const std::vector<std::string>& v);
  /// A nested object rendered by another JsonOut.
  void obj(const std::string& key, const JsonOut& v);
  std::string text() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_escape(std::string_view s);

}  // namespace perf
