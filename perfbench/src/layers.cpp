#include "layers.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <thread>

#include "analysis/analyzer.h"
#include "analysis/ast.h"
#include "analysis/checkers.h"
#include "analysis/driver.h"
#include "analysis/mapped_buffer.h"
#include "analysis/scheduler.h"
#include "analysis/sema.h"
#include "analysis/token.h"
#include "analysis/tree_manifest.h"
#include "service/disk_cache.h"
#include "service/log.h"
#include "service/manifest_codec.h"
#include "service/protocol.h"
#include "service/result_codec.h"
#include "service/server.h"

namespace perf {

namespace an = pnlab::analysis;
namespace svc = pnlab::service;

// ---------------------------------------------------------------------------
// Tracer

int Tracer::add(std::string name, double start_us, double dur_us, int parent) {
  spans_.push_back({std::move(name), start_us, start_us + dur_us, parent, op_});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"name\":" << json_escape(s.name) << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

constexpr double kMiB = 1024.0 * 1024.0;

std::size_t hw_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Runs @p fn on @p threads threads at once, each @p calls times; returns
/// the mean wall time of one call in microseconds.
double per_call_us(int threads, int calls, const std::function<void(int)>& fn) {
  std::atomic<bool> go{false};
  std::vector<double> us(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto t0 = Clock::now();
      for (int i = 0; i < calls; ++i) fn(i);
      us[static_cast<std::size_t>(t)] = us_between(t0, Clock::now()) / calls;
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return mean_of(us);
}

/// The on-disk cache as the driver's second level, with its calls timed.
/// Called from the driver's worker threads, hence the atomics.
class TimedDisk final : public an::SecondaryCache {
 public:
  explicit TimedDisk(svc::DiskCache& disk) : disk_(disk) {}
  std::optional<an::AnalysisResult> load(std::uint64_t hash,
                                         std::size_t length) override {
    const auto t0 = Clock::now();
    auto r = disk_.load(hash, length);
    load_ns_ += static_cast<std::uint64_t>(us_between(t0, Clock::now()) * 1e3);
    ++loads_;
    if (r) ++hits_;
    return r;
  }
  void store(std::uint64_t hash, std::size_t length,
             const an::AnalysisResult& result) override {
    const auto t0 = Clock::now();
    disk_.store(hash, length, result);
    store_ns_ += static_cast<std::uint64_t>(us_between(t0, Clock::now()) * 1e3);
    ++stores_;
  }
  double load_us() const { return ratio(load_ns_ / 1e3, loads_); }
  double store_us() const { return ratio(store_ns_ / 1e3, stores_); }
  double hit_ratio() const { return ratio(hits_, loads_); }
  /// Forgets the calls so far (the replay's own cold pass).
  void reset() {
    load_ns_ = loads_ = hits_ = store_ns_ = stores_ = 0;
  }

 private:
  svc::DiskCache& disk_;
  std::atomic<std::uint64_t> load_ns_{0}, loads_{0}, hits_{0};
  std::atomic<std::uint64_t> store_ns_{0}, stores_{0};
};

/// Shared machinery: spans per op, per-layer sums, and the metric table.
class ReplayerBase : public Replayer {
 public:
  ReplayerBase(const Options& o, const Inputs& in, const Daemon* daemon)
      : o_(o), in_(in), daemon_(daemon) {}

 protected:
  /// Times @p fn as one call of @p layer, accumulating into the op's
  /// per-layer total; the op's spans are added when it finishes.
  template <typename F>
  auto timed(const std::string& layer, F&& fn) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      op_us_[layer] += us_between(t0, Clock::now());
      ++calls_[layer];
    } else {
      auto r = fn();
      op_us_[layer] += us_between(t0, Clock::now());
      ++calls_[layer];
      return r;
    }
  }

  /// Closes one replayed op: a root span for the real round trip, which
  /// ended just before the replay began, and one child per layer the
  /// replay called, laid end to end after it.  @p partition names the
  /// layers that together make up the op (the rest break those down),
  /// whose sum feeds unattributed_pct.
  void close_op(const OpRecord& op, const std::vector<std::string>& partition) {
    double replay_us = 0;
    for (const auto& [layer, us] : op_us_) replay_us += us;
    double at = tracer_.now_us() - replay_us;
    const int root = tracer_.add(std::string("round_trip.") + op.kind,
                                 at - op.rt_ms * 1e3, op.rt_ms * 1e3, -1);
    double sum = 0;
    for (const auto& [layer, us] : op_us_) {
      tracer_.add(layer, at, us, root);
      at += us;
      total_us_[layer] += us;
      if (std::find(partition.begin(), partition.end(), layer) != partition.end()) {
        sum += us;
      }
    }
    layers_ms_[op.kind].push_back(sum / 1e3);
    if (op.pncd_delta.cpu_ms > 0 || op.pncd_delta.wchar > 0) {
      pncd_cpu_.push_back(op.pncd_delta.cpu_ms);
      // The response frame is the daemon's own socket write; what is
      // left is file IO (disk-cache entries, index, manifests).
      const double frame = static_cast<double>(op.body.size()) + 4;
      pncd_wbytes_.push_back(std::max(0.0, op.pncd_delta.wchar - frame));
      pncd_wcalls_.push_back(static_cast<double>(op.pncd_delta.syscw));
    }
    if (!op.body.empty() && !rendered_.empty() && rendered_ != op.body) {
      ++render_mismatches_;
    }
    rendered_.clear();
    op_us_.clear();
    tracer_.next_op();
  }

  double total(const std::string& layer) const {
    auto it = total_us_.find(layer);
    return it == total_us_.end() ? 0 : it->second;
  }
  double calls(const std::string& layer) const {
    auto it = calls_.find(layer);
    return it == calls_.end() ? 0 : static_cast<double>(it->second);
  }
  /// Mean time of one call of @p layer, in microseconds.
  double per_call(const std::string& layer) const {
    return ratio(total(layer), calls(layer));
  }
  double ops(char kind) const {
    auto it = layers_ms_.find(kind);
    return it == layers_ms_.end() ? 0 : static_cast<double>(it->second.size());
  }
  double all_ops() const { return ops('a') + ops('b') + ops('c'); }

  void set(const std::string& name, double value) { metrics_[name] = value; }

  /// The whole-op metrics, the tool metrics, and the spans file.
  void finish_common(Run& run) {
    for (const auto& [kind, samples] : run.kinds) {
      const double untraced = median_of(samples.lat_ms);
      const double traced = median_of(samples.traced_ms);
      const std::string k(1, kind);
      set(k + ".unattributed_pct",
          untraced > 0 && ops(kind) > 0
              ? 100 * (untraced - median_of(layers_ms_[kind])) / untraced
              : 0);
      set(k + ".tracing_overhead_pct",
          untraced > 0 && traced > 0 ? 100 * (traced - untraced) / untraced : 0);
    }
    if (daemon_ != nullptr) {
      set("pncd.ready_ms", daemon_->ready_ms());
      set("pncd.cpu_ms_per_op", mean_of(pncd_cpu_));
      set("pncd.write_bytes_per_op", mean_of(pncd_wbytes_));
      set("pncd.write_calls_per_op", mean_of(pncd_wcalls_));
      set("service.server.sheds", run.sheds);
      set("service.server.deadline_rejects", run.deadline_rejects);
      ping_metrics();
    }
    run.check(render_mismatches_ == 0,
              "traced replay rendered a body that differs from the real one");
    for (const auto& [name, value] : metrics_) run.layers.num(name, value);
    tracer_.write(o_.work + "/spans.jsonl");
  }

  /// Frontend layers over one buffer: lexer, parser, sema, checkers, and
  /// analyze() as a whole.  @p large selects the *_large accumulators.
  an::AnalysisResult frontend(std::string_view src, bool large) {
    const std::string size = large ? "large" : "small";
    ctx_.reset();
    auto& tokens = ctx_.token_scratch();
    timed("analysis.lexer." + size, [&] { an::tokenize_into(src, ctx_, tokens); });
    sum_["tokens"] += static_cast<double>(tokens.size());
    ctx_.reset();
    an::Program program =
        timed("analysis.parser." + size, [&] { return an::parse(src, ctx_); });
    sum_["ast_nodes"] += static_cast<double>(ctx_.arena().stats().nodes);
    sum_["arena_bytes"] += static_cast<double>(ctx_.arena().stats().bytes);
    const an::TypeTable types =
        timed("analysis.sema." + size, [&] { return an::TypeTable(program); });
    sum_["classes"] += static_cast<double>(program.classes.size());
    const auto diags = timed("analysis.checkers." + size, [&] {
      return an::run_checkers(program, types, options_.taint);
    });
    sum_["diagnostics"] += static_cast<double>(diags.size());
    sum_["placement_sites"] += static_cast<double>(program.placement_sites);
    sum_[size + "_bytes"] += static_cast<double>(src.size());
    sum_[size + "_files"] += 1;
    return timed("analysis.analyzer." + size,
                 [&] { return an::analyze(src, options_, nullptr, &ctx_); });
  }

  void frontend_metrics() {
    const double small_mib = sum_["small_bytes"] / kMiB;
    const double large_mib = sum_["large_bytes"] / kMiB;
    const double kib = (sum_["small_bytes"] + sum_["large_bytes"]) / 1024;
    const double files = sum_["small_files"] + sum_["large_files"];
    auto rate = [](double mib, double us) { return ratio(mib, us / 1e6); };
    set("analysis.lexer.mib_per_s_small", rate(small_mib, total("analysis.lexer.small")));
    set("analysis.lexer.mib_per_s_large", rate(large_mib, total("analysis.lexer.large")));
    set("analysis.lexer.tokens_per_kib", ratio(sum_["tokens"], kib));
    // parse() lexes too; the parser's own share is parse minus lex.
    const double parse_small = total("analysis.parser.small") - total("analysis.lexer.small");
    const double parse_large = total("analysis.parser.large") - total("analysis.lexer.large");
    set("analysis.parser.mib_per_s_small", rate(small_mib, parse_small));
    set("analysis.parser.mib_per_s_large", rate(large_mib, parse_large));
    set("analysis.parser.ast_nodes_per_kib", ratio(sum_["ast_nodes"], kib));
    set("analysis.parser.arena_bytes_per_kib", ratio(sum_["arena_bytes"], kib));
    set("analysis.sema.us_per_file",
        ratio(total("analysis.sema.small") + total("analysis.sema.large"), files));
    set("analysis.sema.classes_per_file", ratio(sum_["classes"], files));
    set("analysis.checkers.us_per_file",
        ratio(total("analysis.checkers.small"), sum_["small_files"]));
    set("analysis.checkers.mib_per_s_large",
        rate(large_mib, total("analysis.checkers.large")));
    set("analysis.checkers.placement_sites", ratio(sum_["placement_sites"], files));
    set("analysis.checkers.diagnostics", ratio(sum_["diagnostics"], files));
    double overhead = 0;
    for (const char* size : {"small", "large"}) {
      const std::string s = size;
      overhead += total("analysis.analyzer." + s) - total("analysis.parser." + s) -
                  total("analysis.sema." + s) - total("analysis.checkers." + s);
    }
    set("analysis.analyzer.overhead_us_per_file", ratio(overhead, files));
  }

  /// Walk + ingest + hash of @p dir, as the driver's directory run does.
  std::vector<an::SourceFile> ingest_dir(const std::string& dir) {
    std::vector<std::string> paths;
    std::vector<an::FileReport> unreadable;
    timed("analysis.walk", [&] { an::collect_pnc_tree(dir, &paths, &unreadable); });
    std::sort(paths.begin(), paths.end());
    sum_["walk_files"] += static_cast<double>(paths.size());
    return ingest(paths);
  }

  std::vector<an::SourceFile> ingest(const std::vector<std::string>& paths) {
    std::vector<an::SourceFile> files;
    files.reserve(paths.size());
    for (const auto& path : paths) {
      std::string error;
      auto buffer = timed("analysis.mapped_buffer", [&] {
        return an::MappedBuffer::open(path, an::MappedBuffer::Ingestion::kAuto, &error);
      });
      if (!buffer) {
        sum_["open_failures"] += 1;
        continue;
      }
      sum_["mapped"] += buffer->is_mapped() ? 1 : 0;
      timed("analysis.hash", [&] { return an::fnv1a(buffer->view()); });
      sum_["hashed_bytes"] += static_cast<double>(buffer->view().size());
      files.push_back(an::SourceFile::mapped(path, std::move(buffer)));
    }
    return files;
  }

  void ingest_metrics() {
    set("analysis.walk.ms", ratio(total("analysis.walk"), calls("analysis.walk")) / 1e3);
    set("analysis.walk.files", ratio(sum_["walk_files"], calls("analysis.walk")));
    set("analysis.mapped_buffer.open_us", per_call("analysis.mapped_buffer"));
    set("analysis.mapped_buffer.mapped_share",
        ratio(sum_["mapped"], calls("analysis.mapped_buffer")));
    set("analysis.mapped_buffer.failures", sum_["open_failures"]);
    set("analysis.hash.mib_per_s",
        ratio(sum_["hashed_bytes"] / kMiB, total("analysis.hash") / 1e6));
  }

  /// The response as framed on the wire, encoded and decoded.
  void protocol(const std::string& body) {
    svc::Response rsp;
    rsp.ok = true;
    rsp.status = svc::StatusCode::kOk;
    rsp.body = body;
    const auto payload =
        timed("service.protocol.encode", [&] { return svc::encode_response(rsp); });
    sum_["frame_bytes"] += static_cast<double>(payload.size()) + 4;
    timed("service.protocol.decode", [&] { return svc::decode_response(payload); });
  }

  void protocol_metrics() {
    set("service.protocol.encode_us", per_call("service.protocol.encode"));
    set("service.protocol.decode_us", per_call("service.protocol.decode"));
    set("service.protocol.frame_bytes",
        ratio(sum_["frame_bytes"], calls("service.protocol.encode")));
  }

  void render_metrics() {
    set("analysis.render.json_ms", per_call("analysis.render.json") / 1e3);
    set("analysis.render.sarif_ms", per_call("analysis.render.sarif") / 1e3);
    set("analysis.render.bytes",
        ratio(sum_["render_bytes"],
              calls("analysis.render.json") + calls("analysis.render.sarif")));
  }

  /// PING round trips on warm connections to the real daemon: one
  /// connection, then four at once.
  void ping_metrics() {
    svc::Request ping;
    ping.kind = svc::RequestKind::kPing;
    constexpr int kPings = 300;
    auto pings = [&](int conns) {
      std::vector<std::vector<double>> us(static_cast<std::size_t>(conns));
      std::vector<std::thread> pool;
      for (int c = 0; c < conns; ++c) {
        pool.emplace_back([&, c] {
          auto client = daemon_->connect();
          for (int i = 0; i < kPings; ++i) {
            svc::Response rsp;
            const auto t0 = Clock::now();
            client->call(ping, &rsp);
            us[static_cast<std::size_t>(c)].push_back(us_between(t0, Clock::now()));
          }
        });
      }
      for (auto& th : pool) th.join();
      std::vector<double> all;
      for (const auto& v : us) all.insert(all.end(), v.begin(), v.end());
      return median_of(all);
    };
    set("service.client.ping_rtt_us", pings(1));
    set("service.client.ping_rtt_us_4c", pings(4));
  }

  const Options& o_;
  const Inputs& in_;
  const Daemon* daemon_;
  an::AnalyzerOptions options_;
  an::AstContext ctx_;
  Tracer tracer_;
  std::map<std::string, double> sum_;
  std::map<std::string, double> op_us_;
  std::map<std::string, double> total_us_;
  std::map<std::string, std::size_t> calls_;
  std::map<char, std::vector<double>> layers_ms_;
  std::vector<double> pncd_cpu_, pncd_wbytes_, pncd_wcalls_;
  std::map<std::string, double> metrics_;
  std::string rendered_;  ///< the replay's body for the current op
  std::size_t render_mismatches_ = 0;
};

// ---------------------------------------------------------------------------
// cold_cli: what one fresh pnc_analyze does, in process and serially.

class ColdReplayer final : public ReplayerBase {
 public:
  using ReplayerBase::ReplayerBase;

  void replay(const OpRecord& op) override {
    cli_cpu_.push_back(op.cli_cpu_ms);
    cli_wall_.push_back(op.rt_ms);
    const bool large = op.kind == 'b';
    std::vector<an::SourceFile> files =
        op.kind == 'a' ? ingest_dir(in_.tree)
                       : ingest(op.kind == 'b' ? in_.large
                                               : std::vector<std::string>{in_.single});
    // Analyze every file; the results also warm a cache so the batch
    // the CLI renders can be assembled without analyzing twice.
    auto cache = std::make_shared<an::ResultCache>();
    for (const auto& f : files) {
      cache->insert(f.content_hash, f.source.size(), frontend(f.source, large));
    }
    an::DriverOptions d;
    d.threads = 1;
    d.shared_cache = cache;
    const an::BatchResult batch = an::BatchDriver(d).run(files);
    rendered_ = timed("analysis.render.sarif", [&] { return an::to_sarif(batch); });
    sum_["render_bytes"] += static_cast<double>(rendered_.size());
    const std::string analyzer = large ? "analysis.analyzer.large" : "analysis.analyzer.small";
    op_us_["cli.startup"] += startup_us_;
    close_op(op, {"cli.startup", "analysis.walk", "analysis.mapped_buffer",
                  "analysis.hash", analyzer, "analysis.render.sarif"});
  }

  void finish(Run& run) override {
    set("cli.startup_ms", startup_us_ / 1e3);
    set("cli.cpu_ms_per_op", mean_of(cli_cpu_));
    set("cli.parallelism",
        ratio(std::accumulate(cli_cpu_.begin(), cli_cpu_.end(), 0.0),
              std::accumulate(cli_wall_.begin(), cli_wall_.end(), 0.0)));
    frontend_metrics();
    ingest_metrics();
    render_metrics();
    finish_common(run);
  }

  /// Process start, measured once up front so every op can carry it.
  void measure_startup(const std::string& tool) {
    std::vector<double> us;
    for (int i = 0; i < 5; ++i) us.push_back(run_child({tool, "--version"}).wall_ms * 1e3);
    startup_us_ = median_of(us);
  }

 private:
  std::vector<double> cli_cpu_, cli_wall_;
  double startup_us_ = 0;
};

// ---------------------------------------------------------------------------
// warm_dir: a warm ANALYZE_DIR replayed through walk, ingest, hash, cache
// probe, scheduler, driver, render and framing, plus an in-process
// Server::handle of the same request.

class WarmReplayer final : public ReplayerBase {
 public:
  WarmReplayer(const Options& o, const Inputs& in, const Daemon* daemon)
      : ReplayerBase(o, in, daemon),
        fingerprint_(svc::analyzer_options_fingerprint(options_)) {
    svc::log::set_level(svc::log::Level::kWarn);
    const auto files = ingest_dir(in_.tree);
    op_us_.clear();
    calls_.clear();
    sum_.clear();
    // The cold pass, replayed on the benchmark's own caches: analyze,
    // encode, store on disk, load back, decode.
    const std::string dir = o_.work + "/replay-disk";
    remove_tree(dir);
    disk_ = std::make_unique<svc::DiskCache>(svc::DiskCacheOptions{dir, 256ull << 20, fingerprint_});
    for (const auto& f : files) {
      auto result = an::analyze(f.source, options_, nullptr, &ctx_);
      const auto bytes =
          timed("service.result_codec.encode", [&] { return svc::encode_result(result); });
      timed("service.result_codec.decode", [&] { return svc::decode_result(bytes); });
      timed("service.disk_cache.store",
            [&] { disk_->store(f.content_hash, f.source.size(), result); });
      warm_->insert(f.content_hash, f.source.size(), result);
      keys_.emplace_back(f.content_hash, f.source.size());
    }
    for (const auto& [hash, length] : keys_) {
      const bool hit = timed("service.disk_cache.load",
                             [&] { return disk_->load(hash, length).has_value(); });
      sum_["disk_hits"] += hit ? 1 : 0;
    }
    for (const auto& [layer, us] : op_us_) total_us_[layer] += us;
    op_us_.clear();
    server_options_.socket_path = o_.work + "/replay.sock";
    server_options_.cache_dir = o_.work + "/replay-server";
    remove_tree(server_options_.cache_dir);
    server_ = std::make_unique<svc::Server>(server_options_);
    request_.kind = svc::RequestKind::kAnalyzeDir;
    request_.paths = {in_.tree};
    server_->handle(request_);  // its cold pass
  }

  void replay(const OpRecord& op) override {
    const bool sarif = op.kind == 'c';
    const std::string render = sarif ? "analysis.render.sarif" : "analysis.render.json";
    sum_["hit_files"] += static_cast<double>(op.files);
    sum_["mem_hits"] += static_cast<double>(op.mem_hits);
    const auto files = ingest_dir(in_.tree);
    for (const auto& f : files) {
      timed("analysis.cache.find", [&] { return warm_->find(f.content_hash, f.source.size()); });
    }
    std::vector<std::uint64_t> weights;
    for (const auto& f : files) weights.push_back(f.source.size());
    const auto steals = timed("analysis.scheduler", [&] {
      return an::parallel_for_weighted(hw_threads(), weights, [](std::size_t, std::size_t) {});
    });
    sum_["steals"] += static_cast<double>(steals.steals);
    const auto evictions = warm_->stats().evictions;
    an::DriverOptions d;
    d.shared_cache = warm_;
    d.threads = 1;
    timed("analysis.driver.1t", [&] { return an::BatchDriver(d).run(files); });
    d.threads = 0;
    const an::BatchResult batch =
        timed("analysis.driver", [&] { return an::BatchDriver(d).run(files); });
    sum_["evictions"] += static_cast<double>(warm_->stats().evictions - evictions);
    rendered_ = timed(render, [&] { return sarif ? an::to_sarif(batch) : an::to_json(batch); });
    sum_["render_bytes"] += static_cast<double>(rendered_.size());
    protocol(op.body);
    request_.format = sarif ? svc::OutputFormat::kSarif : svc::OutputFormat::kJson;
    timed("service.server.handle", [&] { return server_->handle(request_); });
    close_op(op, {"analysis.walk", "analysis.mapped_buffer", "analysis.hash",
                  "analysis.driver", render, "service.protocol.encode",
                  "service.protocol.decode"});
  }

  void finish(Run& run) override {
    ingest_metrics();
    render_metrics();
    protocol_metrics();
    const double probes_us = per_call("analysis.cache.find") * static_cast<double>(keys_.size());
    set("analysis.cache.find_hit_us", per_call("analysis.cache.find"));
    set("analysis.cache.find_hit_us_4t", per_call_us(4, 20000, [&](int i) {
          const auto& [hash, length] = keys_[static_cast<std::size_t>(i) % keys_.size()];
          warm_->find(hash, length);
        }));
    set("analysis.cache.hit_ratio", ratio(sum_["mem_hits"], sum_["hit_files"]));
    set("analysis.cache.evictions_per_op", ratio(sum_["evictions"], ops('a') + ops('c')));
    set("analysis.scheduler.call_us", per_call("analysis.scheduler"));
    set("analysis.scheduler.steals_per_call", ratio(sum_["steals"], calls("analysis.scheduler")));
    set("analysis.driver.run_warm_ms_1t", (per_call("analysis.driver.1t") - probes_us) / 1e3);
    set("analysis.driver.run_warm_ms", (per_call("analysis.driver") - probes_us) / 1e3);
    set("service.disk_cache.load_us", per_call("service.disk_cache.load"));
    set("service.disk_cache.store_us", per_call("service.disk_cache.store"));
    set("service.disk_cache.hit_ratio", ratio(sum_["disk_hits"], calls("service.disk_cache.load")));
    set("service.disk_cache.load_us_4t", per_call_us(4, 500, [&](int i) {
          const auto& [hash, length] = keys_[static_cast<std::size_t>(i) % keys_.size()];
          disk_->load(hash, length);
        }));
    set("service.result_codec.encode_us", per_call("service.result_codec.encode"));
    set("service.result_codec.decode_us", per_call("service.result_codec.decode"));
    const double handle_ms = per_call("service.server.handle") / 1e3;
    set("service.server.handle_ms", handle_ms);
    const double path_ms = (ratio(total("analysis.walk") + total("analysis.mapped_buffer") +
                                      total("analysis.hash") + total("analysis.driver") +
                                      total("analysis.render.json") +
                                      total("analysis.render.sarif"),
                                  calls("analysis.driver"))) / 1e3;
    set("service.server.dispatch_overhead_ms", handle_ms - path_ms);
    set("service.server.loaded_p50_ms", median_of(run.kinds['b'].lat_ms));
    finish_common(run);
  }

 private:
  std::uint64_t fingerprint_;
  std::vector<std::pair<std::uint64_t, std::size_t>> keys_;
  std::shared_ptr<an::ResultCache> warm_ = std::make_shared<an::ResultCache>();
  std::unique_ptr<svc::DiskCache> disk_;
  svc::ServerOptions server_options_;
  std::unique_ptr<svc::Server> server_;
  svc::Request request_;
};

// ---------------------------------------------------------------------------
// tree_10k: the tree verbs replayed on the benchmark's own manifest,
// memory cache and disk cache.

class TreeReplayer final : public ReplayerBase {
 public:
  TreeReplayer(const Options& o, const Inputs& in, const Daemon* daemon)
      : ReplayerBase(o, in, daemon),
        fingerprint_(svc::analyzer_options_fingerprint(options_)),
        manifest_(in.tree, fingerprint_) {
    svc::log::set_level(svc::log::Level::kWarn);
    const std::string dir = o_.work + "/replay-disk";
    remove_tree(dir);
    disk_ = std::make_unique<svc::DiskCache>(svc::DiskCacheOptions{dir, 256ull << 20, fingerprint_});
    timed_disk_ = std::make_unique<TimedDisk>(*disk_);
    manifest_file_ = svc::manifest_path(dir, in.tree, fingerprint_);
    // The replay's TREE_OPEN: a full incremental run from an empty
    // manifest, which fills both caches and commits the manifest.
    retained_ = driver().run_incremental(manifest_);
    svc::save_manifest(manifest_file_, manifest_);
    timed_disk_->reset();
  }

  void replay(const OpRecord& op) override {
    sum_["hit_files"] += static_cast<double>(op.files);
    sum_["mem_hits"] += static_cast<double>(op.mem_hits);
    std::vector<std::string> partition = {"analysis.tree_manifest.scan",
                                          "service.protocol.encode",
                                          "service.protocol.decode"};
    if (op.kind == 'c') {
      // Full ANALYZE_DIR: the driver's own walk/ingest/probe/merge; the
      // separate walk and ingest spans break its front half down.
      partition = {"analysis.driver", "analysis.render.json", "service.protocol.encode",
                   "service.protocol.decode"};
      ingest_dir(in_.tree);
      const auto evictions = memory_->stats().evictions;
      const an::BatchResult batch =
          timed("analysis.driver", [&] { return driver().run_directory(in_.tree); });
      sum_["evictions"] += static_cast<double>(memory_->stats().evictions - evictions);
      render(batch);
    } else {
      an::ScanResult scan =
          timed("analysis.tree_manifest.scan", [&] { return manifest_.scan(); });
      sum_["stat_calls"] += static_cast<double>(scan.stat_calls);
      sum_["rehashes"] += static_cast<double>(scan.rehashes);
      if (scan.dirty + scan.added > 0 || !scan.removed.empty()) {
        partition.insert(partition.end(), {"analysis.driver", "analysis.render.json",
                                           "service.manifest_codec.save"});
        an::TreeManifest copy = manifest_;
        timed("analysis.tree_manifest.commit", [&] { return copy.commit(scan); });
        const auto evictions = memory_->stats().evictions;
        an::BatchResult batch = timed("analysis.driver", [&] {
          return driver().run_incremental(manifest_, std::move(scan), &retained_);
        });
        sum_["evictions"] += static_cast<double>(memory_->stats().evictions - evictions);
        render(batch);
        timed("service.manifest_codec.save",
              [&] { return svc::save_manifest(manifest_file_, manifest_); });
        sum_["manifest_bytes"] += static_cast<double>(svc::encode_manifest(manifest_).size());
        for (const auto& f : batch.files) {
          if (f.cache_hit) continue;
          const auto bytes = timed("service.result_codec.encode",
                                   [&] { return svc::encode_result(f.result); });
          timed("service.result_codec.decode", [&] { return svc::decode_result(bytes); });
        }
        retained_ = std::move(batch);
      }
    }
    protocol(op.body);
    close_op(op, partition);
  }

  void finish(Run& run) override {
    ingest_metrics();
    render_metrics();
    protocol_metrics();
    const double edits = calls("service.manifest_codec.save");
    set("analysis.tree_manifest.scan_ms", per_call("analysis.tree_manifest.scan") / 1e3);
    set("analysis.tree_manifest.stat_calls",
        ratio(sum_["stat_calls"], calls("analysis.tree_manifest.scan")));
    set("analysis.tree_manifest.rehashes",
        ratio(sum_["rehashes"], calls("analysis.tree_manifest.scan")));
    set("analysis.tree_manifest.commit_ms", per_call("analysis.tree_manifest.commit") / 1e3);
    set("service.manifest_codec.save_ms", per_call("service.manifest_codec.save") / 1e3);
    set("service.manifest_codec.bytes", ratio(sum_["manifest_bytes"], edits));
    set("service.disk_cache.load_us", timed_disk_->load_us());
    set("service.disk_cache.store_us", timed_disk_->store_us());
    set("service.disk_cache.hit_ratio", timed_disk_->hit_ratio());
    std::vector<std::pair<std::uint64_t, std::size_t>> keys;
    for (const auto& [path, entry] : manifest_.entries()) {
      keys.emplace_back(entry.content_hash, entry.length);
      if (keys.size() == 2000) break;
    }
    set("service.disk_cache.load_us_4t", per_call_us(4, 200, [&](int i) {
          const auto& [hash, length] = keys[static_cast<std::size_t>(i * 7) % keys.size()];
          disk_->load(hash, length);
        }));
    set("service.result_codec.encode_us", per_call("service.result_codec.encode"));
    set("service.result_codec.decode_us", per_call("service.result_codec.decode"));
    set("analysis.cache.hit_ratio", ratio(sum_["mem_hits"], sum_["hit_files"]));
    set("analysis.cache.evictions_per_op", ratio(sum_["evictions"], all_ops()));
    set("analysis.driver.run_warm_ms", per_call("analysis.driver") / 1e3);
    finish_common(run);
  }

 private:
  an::BatchDriver driver() {
    an::DriverOptions d;
    d.shared_cache = memory_;
    d.secondary_cache = timed_disk_.get();
    return an::BatchDriver(d);
  }

  void render(const an::BatchResult& batch) {
    rendered_ = timed("analysis.render.json", [&] { return an::to_json(batch); });
    sum_["render_bytes"] += static_cast<double>(rendered_.size());
  }

  std::uint64_t fingerprint_;
  an::TreeManifest manifest_;
  std::unique_ptr<svc::DiskCache> disk_;
  std::unique_ptr<TimedDisk> timed_disk_;
  std::shared_ptr<an::ResultCache> memory_ = std::make_shared<an::ResultCache>();
  std::string manifest_file_;
  an::BatchResult retained_;
};

}  // namespace

std::unique_ptr<Replayer> make_replayer(const Options& options,
                                        const Inputs& inputs,
                                        const Daemon* daemon) {
  if (options.workload == "cold_cli") {
    auto r = std::make_unique<ColdReplayer>(options, inputs, daemon);
    r->measure_startup(options.tools + "/pnc_analyze");
    return r;
  }
  if (options.workload == "warm_dir") {
    return std::make_unique<WarmReplayer>(options, inputs, daemon);
  }
  return std::make_unique<TreeReplayer>(options, inputs, daemon);
}

}  // namespace perf
