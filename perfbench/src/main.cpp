// pnc_perf: the load generator behind perfbench/run.py.
//
//   pnc_perf --workload cold_cli|warm_dir|tree_10k --seed N --seconds S
//            --trace 0|1 --work DIR --tools DIR --out FILE
//   pnc_perf --digest --workload W --seed N --work DIR
//
// Generates the workload's inputs from the seed under DIR, drives the
// real pnc_analyze / pncd binaries found in --tools, checks every output,
// and writes raw samples to FILE as one JSON object.  --digest only
// prints the digest of the inputs the seed generates (nothing is run).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "gen.h"
#include "workloads.h"

using namespace perf;

namespace {

std::string raw_json(const Options& o, const Run& run) {
  JsonOut j;
  j.str("workload", o.workload);
  j.num("seed", static_cast<double>(o.seed));
  j.num("trace", o.trace ? 1 : 0);
  j.str("input_digest", hex64(run.in.digest));
  j.num("input_files", static_cast<double>(run.in.units.size()));
  j.num("input_bytes", static_cast<double>(run.in.bytes));
  JsonOut kinds;
  for (const auto& [key, k] : run.kinds) {
    JsonOut kj;
    kj.str("label", k.label);
    kj.nums("lat_ms", k.lat_ms);
    kj.nums("traced_ms", k.traced_ms);
    kj.num("files_per_op", k.files_per_op);
    kj.num("bytes_per_op", k.bytes_per_op);
    kinds.obj(std::string(1, key), kj);
  }
  j.obj("kinds", kinds);
  j.nums("setup_s", run.setup_s);
  j.num("throughput_ops", run.throughput_ops);
  j.num("throughput_s", run.throughput_s);
  j.num("peak_rss_kib", static_cast<double>(run.peak_rss_kib));
  j.num("attempted", static_cast<double>(run.attempted));
  j.num("failed", static_cast<double>(run.failed));
  j.strs("failures", run.failures);
  j.strs("bodies", run.bodies);
  j.strs("body_scopes", run.body_scopes);
  j.strs("body_formats", run.body_formats);
  j.str("expect", run.in.root + "/expect.json");
  j.num("sheds", run.sheds);
  j.num("deadline_rejects", run.deadline_rejects);
  j.num("scrape_ok", run.scrape_ok ? 1 : 0);
  j.obj("layers", run.layers);
  return j.text();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool digest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "pnc_perf: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed" || arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      if (arg == "--seed") {
        o.seed = std::strtoull(v.c_str(), &end, 10);
      } else {
        o.seconds = std::strtod(v.c_str(), &end);
      }
      if (v.empty() || *end != '\0') {
        std::cerr << "pnc_perf: " << arg << " needs a number\n";
        return 2;
      }
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--work") {
      o.work = value();
    } else if (arg == "--tools") {
      o.tools = value();
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--digest") {
      digest_only = true;
    } else {
      std::cerr << "pnc_perf: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (o.workload != "cold_cli" && o.workload != "warm_dir" &&
      o.workload != "tree_10k") {
    std::cerr << "pnc_perf: --workload must be cold_cli, warm_dir or tree_10k\n";
    return 2;
  }
  if (o.work.empty()) {
    std::cerr << "pnc_perf: --work is required\n";
    return 2;
  }
  try {
    if (digest_only) {
      std::cout << hex64(generate(o.workload, o.seed, o.work + "/inputs").digest)
                << "\n";
      return 0;
    }
    if (o.tools.empty() || o.out.empty()) {
      std::cerr << "pnc_perf: --tools and --out are required\n";
      return 2;
    }
    const Run run = run_workload(o);
    write_file(o.out, raw_json(o, run) + "\n");
  } catch (const std::exception& e) {
    std::cerr << "pnc_perf: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
