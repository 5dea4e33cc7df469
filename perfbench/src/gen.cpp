#include "gen.h"

#include <stdexcept>

#include "analysis/ast.h"
#include "analysis/corpus.h"
#include "perf.h"

namespace perf {

namespace {

using pnlab::analysis::corpus::CorpusCase;

// Additions a unit may carry on top of its corpus case.  Each one is
// clean on its own (no error or warning), so the unit keeps exactly the
// case's expected codes.  They give the analyzer more to do than the
// bare listings: globals make the taint fixpoint run, hierarchies feed
// the layout pass, call chains carry taint, and placement sites reach
// the checkers.  `$` is replaced by a suffix unique within the unit.
// The global-free ones come first: large units use only those, because
// the taint fixpoint over a program with globals grows with globals ×
// functions, which would make a 1 MiB unit a quadratic outlier.
constexpr const char* kAdditions[] = {
    // class hierarchy (same-size derived classes place safely)
    "class GenBase$ {\n  int a;\n  int b;\n};\n"
    "class GenMid$ : GenBase$ {\n};\n"
    "class GenLeaf$ : GenMid$ {\n};\n",
    // taint passed through a call, never sizing a placement
    "int gen_pass$(int v) {\n  return v;\n}\n"
    "void gen_read$() {\n  int n = 0;\n  cin >> n;\n  int m = gen_pass$(n);\n}\n",
    // placement into a local arena it fits
    "void gen_local$() {\n  char buf[64];\n  char* b = new (buf) char[32];\n}\n",
    // guarded placement sized by a tainted value
    "void gen_lguard$(tainted int n) {\n  char pool[64];\n"
    "  if (n * 8 <= sizeof(pool)) {\n    char* p = new (pool) char[n * 8];\n"
    "  }\n}\n",
    // --- with globals ---
    "int gen_count$ = 4;\nint gen_limit$ = 64;\n",
    "char gen_buf$[64];\n"
    "void gen_fill$() {\n  char* b = new (gen_buf$) char[32];\n}\n",
    "char gen_pool$[64];\n"
    "void gen_guard$(tainted int n) {\n"
    "  if (n * 8 <= sizeof(gen_pool$)) {\n"
    "    char* p = new (gen_pool$) char[n * 8];\n"
    "  }\n}\n",
};
constexpr std::size_t kAdditionKinds = sizeof kAdditions / sizeof kAdditions[0];
constexpr std::size_t kGlobalFreeKinds = 4;

/// Seeded Fisher-Yates shuffle.
template <typename Seq>
void shuffle(Seq& seq, Rng& rng) {
  for (std::size_t i = seq.size(); i > 1; --i) {
    std::swap(seq[i - 1], seq[rng.below(i)]);
  }
}

void append_addition(std::string& out, std::size_t kind, const std::string& tag,
                     std::size_t k) {
  std::string suffix = "_";
  suffix += tag;
  suffix += '_';
  suffix += std::to_string(k);
  for (const char* p = kAdditions[kind]; *p; ++p) {
    if (*p == '$') {
      out += suffix;
    } else {
      out += *p;
    }
  }
}

/// Corpus case text plus seeded additions up to @p target_bytes.
std::string unit_body(const CorpusCase& c, Rng& rng, std::size_t target_bytes,
                      const std::string& tag) {
  std::string body = c.source;
  for (std::size_t k = 0; body.size() < target_bytes; ++k) {
    append_addition(body, rng.below(kAdditionKinds), tag, k);
  }
  return body;
}

/// A >= @p target_bytes unit: the case once, then the global-free
/// additions in equal shares (a seeded order within each round), so two
/// seeds' large units cost the same to analyze.  No construct nests
/// deeper than the listings themselves.
std::string large_body(const CorpusCase& c, Rng& rng, std::size_t target_bytes,
                       const std::string& tag) {
  std::string body = c.source;
  body.reserve(target_bytes + 4096);
  std::vector<std::size_t> round(kGlobalFreeKinds);
  for (std::size_t k = 0; body.size() < target_bytes; ++k) {
    if (k % kGlobalFreeKinds == 0) {
      for (std::size_t i = 0; i < round.size(); ++i) round[i] = i;
      shuffle(round, rng);
    }
    append_addition(body, round[k % kGlobalFreeKinds], tag, k);
  }
  return body;
}

/// Corpus cases without globals: the only ones a large unit starts from,
/// since one global makes the taint fixpoint run over the whole unit.
std::vector<const CorpusCase*> global_free_cases() {
  std::vector<const CorpusCase*> out;
  for (const auto& c : pnlab::analysis::corpus::analyzer_corpus()) {
    if (pnlab::analysis::parse_unit(c.source).program.globals.empty()) {
      out.push_back(&c);
    }
  }
  return out;
}

Unit make_unit(const std::string& path, const std::string& header,
               std::string body, const CorpusCase& c) {
  Unit u;
  u.path = path;
  u.header = header;
  u.body = std::move(body);
  u.case_id = c.id;
  u.codes = c.expected_codes;
  u.clean = c.expect_clean;
  return u;
}

std::string header_for(const std::string& workload, std::uint64_t seed,
                       std::size_t index, const CorpusCase& c) {
  return "// pnc-perf " + workload + " seed " + std::to_string(seed) +
         " unit " + std::to_string(index) + " case " + c.id + "\n";
}

}  // namespace

std::string edit_header(const Unit& unit, std::size_t revision) {
  std::string h = unit.header;
  h.pop_back();  // the newline
  return h + " rev " + std::to_string(revision) + "\n";
}

Inputs generate(const std::string& workload, std::uint64_t seed,
                const std::string& root) {
  const auto& corpus = pnlab::analysis::corpus::analyzer_corpus();
  Inputs in;
  in.root = root;
  in.tree = root + "/tree";
  // Mixing the workload name in keeps workloads' streams independent.
  Rng rng(seed ^ digest_of(workload));

  // @p n small units whose cases and sizes are stratified: each corpus
  // case appears n/26 times (±1) and the target sizes cover 100..4096
  // bytes evenly, in a seeded order.  Trees from different seeds then
  // differ in order, names and bytes, not in their totals.
  auto small_units = [&](std::size_t n, auto path_of) {
    std::vector<std::size_t> cases(n);
    std::vector<std::size_t> strata(n);
    for (std::size_t i = 0; i < n; ++i) {
      cases[i] = i % corpus.size();
      strata[i] = i;
    }
    shuffle(cases, rng);
    shuffle(strata, rng);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& c = corpus[cases[i]];
      const std::size_t target = 100 + (3996 * strata[i] + rng.below(3996)) / n;
      in.units.push_back(make_unit(path_of(i, c), header_for(workload, seed, i, c),
                                   unit_body(c, rng, target, std::to_string(i)), c));
    }
  };

  if (workload == "cold_cli") {
    constexpr std::size_t kSmall = 2000;
    small_units(kSmall, [&](std::size_t i, const CorpusCase&) {
      return in.tree + "/d" + std::to_string(i / 100) + "/u" + std::to_string(i) + ".pnc";
    });
    // Three >= 1 MiB units of 1, 1.125 and 1.25 MiB, give or take 64 KiB.
    const auto large_cases = global_free_cases();
    for (std::size_t j = 0; j < 3; ++j) {
      const auto& c = *large_cases[rng.below(large_cases.size())];
      const std::size_t target = (1u << 20) + j * (128u << 10) + rng.below(64u << 10);
      std::string tag = "L";
      tag += std::to_string(j);
      const std::string path = root + "/large/" + tag + ".pnc";
      in.units.push_back(make_unit(path, header_for(workload, seed, kSmall + j, c),
                                   large_body(c, rng, target, tag), c));
      in.large.push_back(path);
    }
    const auto& c = corpus[rng.below(corpus.size())];
    in.single = root + "/single/S.pnc";
    in.units.push_back(make_unit(in.single, header_for(workload, seed, kSmall + 3, c),
                                 unit_body(c, rng, 2048, "S"), c));
  } else if (workload == "warm_dir") {
    // The 104-file shape: every corpus case four times, each copy with a
    // distinct header line.
    small_units(4 * corpus.size(), [&](std::size_t i, const CorpusCase& c) {
      return in.tree + "/" + c.id + "_" + std::to_string(i) + ".pnc";
    });
  } else if (workload == "tree_10k") {
    constexpr std::size_t kSmall = 10000;
    small_units(kSmall, [&](std::size_t i, const CorpusCase&) {
      return in.tree + "/d" + std::to_string(i / 1000) + "/f" + std::to_string(i) + ".pnc";
    });
    const auto large_cases = global_free_cases();
    const auto& c = *large_cases[rng.below(large_cases.size())];
    in.units.push_back(make_unit(in.tree + "/big.pnc",
                                 header_for(workload, seed, kSmall, c),
                                 large_body(c, rng, 1u << 20, "big"), c));
    // Op mix: mostly no-change reanalyses, a steady stream of one-file
    // edits, and an occasional full ANALYZE_DIR — twelve, three and one
    // in every sixteen ops, shuffled within each round, so any prefix of
    // the sequence keeps the mix (a full op costs ~20 no-change ones).  A
    // 20-second run then sees ~100 no-change ops, enough for a tail.
    constexpr std::size_t kRounds = 2000;
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::string ops = "nnnnnnnnnnnneeef";
      shuffle(ops, rng);
      for (char kind : ops) {
        in.ops += kind;
        in.edit_targets.push_back(kind == 'e' ? rng.below(kSmall) : 0);
      }
    }
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }

  Digest d;
  d.add(in.ops);
  for (std::size_t t : in.edit_targets) d.add_u64(t);
  for (const auto& u : in.units) {
    d.add(u.path.substr(root.size()));
    d.add(u.text());
    in.bytes += u.header.size() + u.body.size();
  }
  in.digest = d.value();
  return in;
}

void write_inputs(const Inputs& inputs) {
  remove_tree(inputs.root);
  std::string expect = "{";
  bool first = true;
  for (const auto& u : inputs.units) {
    make_dirs(u.path.substr(0, u.path.rfind('/')));
    write_file(u.path, u.text());
    expect += first ? "\n" : ",\n";
    first = false;
    expect += json_escape(u.path) + ": {\"case\": " + json_escape(u.case_id) +
              ", \"clean\": " + (u.clean ? "true" : "false") + ", \"codes\": [";
    for (std::size_t i = 0; i < u.codes.size(); ++i) {
      expect += (i ? ", " : "") + json_escape(u.codes[i]);
    }
    expect += "]}";
  }
  write_file(inputs.root + "/expect.json", expect + "\n}\n");
}

}  // namespace perf
