#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "analysis/driver.h"
#include "layers.h"
#include "service/protocol.h"

namespace perf {

namespace an = pnlab::analysis;
namespace svc = pnlab::service;

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

int exit_code_of(const an::BatchResult& batch) {
  if (batch.stats.read_errors > 0) return 3;
  return (batch.finding_count() > 0 || batch.has_parse_errors()) ? 1 : 0;
}

/// The reference answer: a cold in-process run at one thread.
struct Expected {
  std::string body;
  std::uint64_t digest = 0;
  int exit_code = 0;
  std::uint64_t files = 0;
  std::uint64_t findings = 0;
};

Expected reference(const an::BatchResult& batch, bool sarif) {
  Expected e;
  e.body = sarif ? an::to_sarif(batch) : an::to_json(batch);
  e.digest = digest_of(e.body);
  e.exit_code = exit_code_of(batch);
  e.files = batch.files.size();
  e.findings = batch.finding_count();
  return e;
}

an::DriverOptions one_thread_cold() {
  an::DriverOptions o;
  o.threads = 1;
  o.use_cache = false;
  return o;
}

Expected reference_dir(const std::string& dir, bool sarif) {
  an::BatchDriver driver(one_thread_cold());
  return reference(driver.run_directory(dir), sarif);
}

Expected reference_files(const std::vector<std::string>& paths, bool sarif) {
  std::vector<an::SourceFile> files;
  for (const auto& p : paths) files.emplace_back(p, read_file(p));
  an::BatchDriver driver(one_thread_cold());
  return reference(driver.run(files), sarif);
}

/// Keeps @p body for run.py's per-file check, which covers the generated
/// files whose paths start with @p scope.  The extension of @p name
/// ("json" or "sarif") is the body's format.
void save_body(const Options& o, Run& run, const std::string& name,
               const std::string& body, const std::string& scope) {
  const std::string path = o.work + "/bodies/" + name;
  make_dirs(o.work + "/bodies");
  write_file(path, body);
  run.bodies.push_back(path);
  run.body_scopes.push_back(scope);
  run.body_formats.push_back(name.substr(name.rfind('.') + 1));
}

// ---------------------------------------------------------------------------
// cold_cli: one caller, one fresh pnc_analyze at a time, no daemon.

Run cold_cli(const Options& o, Run run) {
  const Inputs& in = run.in;
  const std::string tool = o.tools + "/pnc_analyze";
  struct Op {
    char kind;
    std::vector<std::string> argv;
    Expected expected;
    std::string scope;  ///< path prefix of the files the op covers
  };
  std::vector<std::string> argv_b = {tool, "--format=sarif"};
  argv_b.insert(argv_b.end(), in.large.begin(), in.large.end());
  std::vector<Op> ops = {
      {'a', {tool, "--format=sarif", "--dir", in.tree}, reference_dir(in.tree, true),
       in.tree + "/"},
      {'b', argv_b, reference_files(in.large, true), in.root + "/large/"},
      {'c', {tool, "--format=sarif", in.single}, reference_files({in.single}, true),
       in.single},
  };
  run.kinds['a'] = {"pnc_analyze --dir over the small units", {}, {}, 0, 0};
  run.kinds['b'] = {"pnc_analyze over the >= 1 MiB units", {}, {}, 0, 0};
  run.kinds['c'] = {"pnc_analyze over one small unit", {}, {}, 0, 0};
  for (const auto& u : in.units) {
    const bool large = std::find(in.large.begin(), in.large.end(), u.path) !=
                       in.large.end();
    auto& k = run.kinds[large ? 'b' : u.path == in.single ? 'c' : 'a'];
    k.files_per_op += 1;
    k.bytes_per_op += static_cast<double>(u.header.size() + u.body.size());
  }

  // Set-up is process start only: spawn -> exit of `--version`.  It
  // takes ~2 ms, so many repetitions buy a steady median cheaply.
  for (int i = 0; i < 21; ++i) {
    const ChildResult r = run_child({tool, "--version"});
    run.check(r.exit_code == 0, "pnc_analyze --version failed");
    run.setup_s.push_back(r.wall_ms / 1e3);
  }

  // Untimed first pass per kind: the output must equal the in-process
  // reference byte for byte.
  for (const Op& op : ops) {
    const ChildResult r = run_child(op.argv);
    run.check(r.exit_code == op.expected.exit_code && r.out == op.expected.body,
              std::string("cold_cli ") + op.kind +
                  ": first output differs from the in-process reference");
    save_body(o, run, std::string(1, op.kind) + ".sarif", r.out, op.scope);
  }

  std::unique_ptr<Replayer> replayer;
  if (o.trace) replayer = make_replayer(o, in, nullptr);
  const auto start = Clock::now();
  const double half = o.trace ? o.seconds / 2 : o.seconds;
  std::size_t completed = 0;
  double untraced_s = 0;  // when the last untraced op finished
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= o.seconds) break;
    const bool traced = o.trace && elapsed >= half;
    // a, c, b, c, ...: c is cheap, so it can come often.
    const Op& op = i % 2 == 1 ? ops[2] : ops[i / 2 % 2];
    const ChildResult r = run_child(op.argv);
    const bool ok = r.exit_code == op.expected.exit_code &&
                    digest_of(r.out) == op.expected.digest;
    run.check(ok, std::string("cold_cli ") + op.kind + ": exit " +
                      std::to_string(r.exit_code) + " or output differs");
    run.peak_rss_kib = std::max(run.peak_rss_kib, r.max_rss_kib);
    auto& k = run.kinds[op.kind];
    if (!traced) {
      k.lat_ms.push_back(r.wall_ms);
      ++completed;
      untraced_s = ms_between(start, Clock::now()) / 1e3;
      continue;
    }
    k.traced_ms.push_back(r.wall_ms);
    OpRecord rec;
    rec.kind = op.kind;
    rec.rt_ms = r.wall_ms;
    rec.cli_cpu_ms = r.cpu_ms;
    rec.body = r.out;
    replayer->replay(rec);
  }
  run.throughput_ops = static_cast<double>(completed);
  run.throughput_s = untraced_s;
  if (replayer) replayer->finish(run);
  return run;
}

// ---------------------------------------------------------------------------
// Daemon workloads.

svc::Request request(svc::RequestKind kind, const std::string& path,
                     svc::OutputFormat format = svc::OutputFormat::kJson) {
  svc::Request r;
  r.kind = kind;
  r.format = format;
  r.paths = {path};
  return r;
}

/// Checks one analyze response against the reference; empty when good.
std::string verdict(bool called, const svc::Response& rsp, const Expected& e) {
  if (!called) return "transport failure";
  if (!rsp.ok || rsp.status != svc::StatusCode::kOk) {
    return std::string("status ") + svc::status_name(rsp.status) + ": " + rsp.error;
  }
  if (rsp.exit_code != e.exit_code) {
    return "exit code " + std::to_string(rsp.exit_code);
  }
  if (rsp.stats.files != e.files || rsp.stats.findings != e.findings) {
    return "file or finding count differs";
  }
  if (digest_of(rsp.body) != e.digest) return "body differs";
  return {};
}

/// Spawns a daemon over a fresh cache and runs the workload's cold pass;
/// returns the daemon and the set-up time.
std::unique_ptr<Daemon> fresh_daemon(const Options& o, int index,
                                     const svc::Request& cold,
                                     svc::Response* rsp, double* setup_s,
                                     bool* called) {
  const std::string cache = o.work + "/cache" + std::to_string(index);
  remove_tree(cache);
  const auto t0 = Clock::now();
  // A relative socket path: unix socket paths are limited to 107 bytes,
  // and the checkout the benchmark runs in may sit deep.
  auto daemon = std::make_unique<Daemon>(o.tools + "/pncd", "pncd.sock", cache,
                                         o.work + "/pncd.log");
  auto client = daemon->connect();
  *called = client->call(cold, rsp);
  *setup_s = ms_between(t0, Clock::now()) / 1e3;
  return daemon;
}

void scrape(Run& run, const Daemon& d, double sign) {
  double sheds = 0;
  double rejects = 0;
  if (!d.scrape(&sheds, &rejects)) {
    run.scrape_ok = false;
    return;
  }
  run.sheds += sign * sheds;
  run.deadline_rejects += sign * rejects;
}

/// Runs the workload's set-up @p setups times (setup_s is their median);
/// keeps the last daemon.
std::unique_ptr<Daemon> set_up_daemon(const Options& o, Run& run,
                                      const svc::Request& cold,
                                      const Expected& expected,
                                      const std::string& body_name, int setups) {
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < setups; ++i) {
    daemon.reset();
    if (i > 0) remove_tree(o.work + "/cache" + std::to_string(i - 1));
    // Each set-up starts on a quiet disk: the previous one's fsync'd
    // entries and their deletion are written back first.
    sync();
    svc::Response rsp;
    double setup_s = 0;
    bool called = false;
    daemon = fresh_daemon(o, i, cold, &rsp, &setup_s, &called);
    const std::string why = verdict(called, rsp, expected);
    run.check(why.empty(), "cold pass: " + why);
    if (i == 0) {
      // Outside any timing: the daemon's answer must equal the cold
      // in-process run byte for byte.
      run.check(rsp.body == expected.body,
                "cold pass body differs from in-process run_directory");
      save_body(o, run, body_name, rsp.body, run.in.tree + "/");
    }
    run.setup_s.push_back(setup_s);
  }
  // Write back what set-up left dirty, so the timed loop does not share
  // the disk with it.
  sync();
  return daemon;
}

struct Loop {
  std::vector<double> lat_ms;
  std::size_t completed = 0;
  std::vector<std::string> errors;
};

Run warm_dir(const Options& o, Run run) {
  const Inputs& in = run.in;
  const Expected expected = reference_dir(in.tree, false);
  const Expected expected_sarif = reference_dir(in.tree, true);
  const svc::Request analyze = request(svc::RequestKind::kAnalyzeDir, in.tree);
  const svc::Request analyze_sarif =
      request(svc::RequestKind::kAnalyzeDir, in.tree, svc::OutputFormat::kSarif);
  run.kinds['a'] = {"warm ANALYZE_DIR (JSON), one connection", {}, {}, 0, 0};
  run.kinds['b'] = {"warm ANALYZE_DIR (JSON), four connections", {}, {}, 0, 0};
  run.kinds['c'] = {"warm ANALYZE_DIR (SARIF), one connection", {}, {}, 0, 0};
  for (char k : {'a', 'b', 'c'}) {
    run.kinds[k].files_per_op = static_cast<double>(in.units.size());
    run.kinds[k].bytes_per_op = static_cast<double>(in.bytes);
  }

  // A set-up takes ~50 ms here, so fifteen of them are cheap.
  auto daemon = set_up_daemon(o, run, analyze, expected, "a.json", 15);
  scrape(run, *daemon, -1);
  auto client = daemon->connect();
  // Phase 1 sends SARIF every fourth op, JSON otherwise.
  auto op_of = [&](std::size_t i) {
    const bool sarif = i % 4 == 3;
    return std::make_tuple(sarif ? 'c' : 'a', &(sarif ? analyze_sarif : analyze),
                           &(sarif ? expected_sarif : expected));
  };
  for (std::size_t i = 0; i < 20; ++i) {  // warm-up
    const auto [kind, req, want] = op_of(i);
    svc::Response rsp;
    const std::string why = verdict(client->call(*req, &rsp), rsp, *want);
    run.check(why.empty(), "warm-up: " + why);
    if (i == 3) {
      run.check(rsp.body == want->body,
                "warm SARIF body differs from in-process run_directory");
      save_body(o, run, "c.sarif", rsp.body, in.tree + "/");
    }
  }

  std::unique_ptr<Replayer> replayer;
  if (o.trace) replayer = make_replayer(o, in, daemon.get());
  // Phase 1: one connection.  Traced runs spend the first half of each
  // phase untraced.
  const double phase_s = o.seconds / 2;
  auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= phase_s) break;
    const bool traced = o.trace && elapsed >= phase_s / 2;
    const auto [kind, req, want] = op_of(i);
    const Daemon::ProcCounters before =
        traced ? daemon->counters() : Daemon::ProcCounters{};
    svc::Response rsp;
    const auto t0 = Clock::now();
    const bool called = client->call(*req, &rsp);
    const double ms = ms_between(t0, Clock::now());
    const std::string why = verdict(called, rsp, *want);
    run.check(why.empty(), std::string("warm_dir ") + kind + ": " + why);
    if (!traced) {
      run.kinds[kind].lat_ms.push_back(ms);
      continue;
    }
    run.kinds[kind].traced_ms.push_back(ms);
    OpRecord rec;
    rec.kind = kind;
    rec.rt_ms = ms;
    rec.files = rsp.stats.files;
    rec.mem_hits = rsp.stats.mem_cache_hits;
    rec.body = std::move(rsp.body);
    const Daemon::ProcCounters after = daemon->counters();
    rec.pncd_delta = {after.cpu_ms - before.cpu_ms, after.wchar - before.wchar,
                      after.syscw - before.syscw};
    replayer->replay(rec);
  }

  // Phase 2: four connections, each a closed loop.
  constexpr int kConns = 4;
  std::vector<Loop> loops(kConns);
  std::vector<std::unique_ptr<svc::Client>> clients;
  for (int t = 0; t < kConns; ++t) clients.push_back(daemon->connect());
  const double loop_s = o.trace ? phase_s / 2 : phase_s;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto t_start = Clock::now();
      Loop& loop = loops[t];
      while (ms_between(t_start, Clock::now()) / 1e3 < loop_s) {
        svc::Response rsp;
        const auto t0 = Clock::now();
        const bool called = clients[t]->call(analyze, &rsp);
        loop.lat_ms.push_back(ms_between(t0, Clock::now()));
        const std::string why = verdict(called, rsp, expected);
        if (!why.empty()) loop.errors.push_back(why);
        ++loop.completed;
      }
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  for (const Loop& loop : loops) {
    auto& k = run.kinds['b'];
    k.lat_ms.insert(k.lat_ms.end(), loop.lat_ms.begin(), loop.lat_ms.end());
    run.throughput_ops += static_cast<double>(loop.completed);
    for (std::size_t i = 0; i < loop.completed; ++i) {
      const bool ok = i >= loop.errors.size();
      run.check(ok, ok ? "" : "warm_dir b: " + loop.errors[i]);
    }
  }
  run.throughput_s = wall_s;
  scrape(run, *daemon, +1);
  // Phase 2 is never replayed: its layer view (lock wait, loaded
  // latency, PING under four connections) is measured by finish().
  if (replayer) replayer->finish(run);
  run.peak_rss_kib = daemon->peak_rss_kib();
  return run;
}

Run tree_10k(const Options& o, Run run) {
  Inputs& in = run.in;
  const Expected expected = reference_dir(in.tree, false);
  const svc::Request open = request(svc::RequestKind::kTreeOpen, in.tree);
  const svc::Request reanalyze =
      request(svc::RequestKind::kTreeReanalyze, in.tree);
  const svc::Request full = request(svc::RequestKind::kAnalyzeDir, in.tree);
  run.kinds['a'] = {"TREE_REANALYZE, nothing edited", {}, {}, 0, 0};
  run.kinds['b'] = {"TREE_REANALYZE after one file is rewritten", {}, {}, 0, 0};
  run.kinds['c'] = {"ANALYZE_DIR over the whole tree", {}, {}, 0, 0};
  for (char k : {'a', 'b', 'c'}) {
    run.kinds[k].files_per_op = static_cast<double>(in.units.size());
    run.kinds[k].bytes_per_op = static_cast<double>(in.bytes);
  }

  // A set-up takes seconds here (10k fsync'd disk-cache stores): three.
  auto daemon = set_up_daemon(o, run, open, expected, "open.json", 3);
  scrape(run, *daemon, -1);
  auto client = daemon->connect();
  std::vector<std::size_t> revision(in.units.size(), 0);

  std::unique_ptr<Replayer> replayer;
  if (o.trace) replayer = make_replayer(o, in, daemon.get());

  // One op of the seeded sequence; returns its round trip.
  auto do_op = [&](std::size_t i, bool traced, bool save) {
    const char code = in.ops[i % in.ops.size()];
    const char kind = code == 'n' ? 'a' : code == 'e' ? 'b' : 'c';
    if (code == 'e') {
      Unit& u = in.units[in.edit_targets[i % in.ops.size()]];
      write_file(u.path, edit_header(u, ++revision[&u - in.units.data()]) + u.body);
    }
    const Daemon::ProcCounters before =
        traced ? daemon->counters() : Daemon::ProcCounters{};
    svc::Response rsp;
    const auto t0 = Clock::now();
    const bool called = client->call(code == 'f' ? full : reanalyze, &rsp);
    const double ms = ms_between(t0, Clock::now());
    std::string why = verdict(called, rsp, expected);
    if (why.empty() && code != 'f' &&
        rsp.stats.tree_dirty != (code == 'e' ? 1u : 0u)) {
      why = "dirty count " + std::to_string(rsp.stats.tree_dirty);
    }
    run.check(why.empty(), std::string("tree_10k ") + code + ": " + why);
    if (save) {
      save_body(o, run, std::string(1, code) + ".json", rsp.body, in.tree + "/");
    }
    if (!traced) return std::make_pair(kind, ms);
    OpRecord rec;
    rec.kind = kind;
    rec.rt_ms = ms;
    rec.files = rsp.stats.files;
    rec.mem_hits = rsp.stats.mem_cache_hits;
    rec.body = std::move(rsp.body);
    const Daemon::ProcCounters after = daemon->counters();
    rec.pncd_delta = {after.cpu_ms - before.cpu_ms, after.wchar - before.wchar,
                      after.syscw - before.syscw};
    replayer->replay(rec);
    return std::make_pair(kind, ms);
  };

  // Warm-up: one op of each kind, bodies kept for the per-file check.
  std::size_t next = 0;
  for (char want : {'n', 'e', 'f'}) {
    while (in.ops[next] != want) ++next;
    do_op(next++, false, true);
  }
  next = 0;
  const auto start = Clock::now();
  std::size_t completed = 0;
  double untraced_s = 0;  // when the last untraced op finished
  const double half = o.trace ? o.seconds / 2 : o.seconds;
  for (;; ++next) {
    const double elapsed = ms_between(start, Clock::now()) / 1e3;
    if (elapsed >= o.seconds) break;
    const bool traced = o.trace && elapsed >= half;
    const auto [kind, ms] = do_op(next, traced, false);
    if (traced) {
      run.kinds[kind].traced_ms.push_back(ms);
    } else {
      run.kinds[kind].lat_ms.push_back(ms);
      ++completed;
      untraced_s = ms_between(start, Clock::now()) / 1e3;
    }
  }
  run.throughput_ops = static_cast<double>(completed);
  run.throughput_s = untraced_s;
  scrape(run, *daemon, +1);
  if (replayer) replayer->finish(run);
  run.peak_rss_kib = daemon->peak_rss_kib();
  return run;
}

}  // namespace

Run run_workload(const Options& o) {
  if (chdir(o.work.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + o.work);
  }
  Run run;
  run.in = generate(o.workload, o.seed, o.work + "/inputs");
  write_inputs(run.in);
  sync();
  if (o.workload == "cold_cli") return cold_cli(o, std::move(run));
  if (o.workload == "warm_dir") return warm_dir(o, std::move(run));
  return tree_10k(o, std::move(run));
}

}  // namespace perf
