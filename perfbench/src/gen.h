// Seeded input generator.  Every byte the benchmark feeds the analyzer
// comes from here, as a function of (workload, seed) only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

/// One generated `.pnc` file and what the analyzer must say about it.
struct Unit {
  std::string path;    ///< absolute path it is written to
  std::string header;  ///< first line; edits rewrite only this line
  std::string body;    ///< everything after the header
  std::string case_id; ///< corpus case the unit was built from
  /// Codes that must fire (the corpus case's expected_codes).
  std::vector<std::string> codes;
  bool clean = false;  ///< corpus expect_clean: no error/warning allowed
  std::string text() const { return header + body; }
};

struct Inputs {
  std::string root;              ///< everything below lives under here
  std::vector<Unit> units;       ///< every file written
  std::string tree;              ///< the --dir / ANALYZE_DIR / tree root
  std::vector<std::string> large;   ///< cold_cli (b): named >= 1 MiB units
  std::string single;            ///< cold_cli (c): one small unit
  /// tree_10k: seeded op sequence ('n' nochange, 'e' edit, 'f' full) and
  /// the unit index each edit rewrites.
  std::string ops;
  std::vector<std::size_t> edit_targets;
  std::uint64_t digest = 0;      ///< over every path and byte, in order
  std::uint64_t bytes = 0;
};

/// Builds the inputs for @p workload in memory (nothing is written).
Inputs generate(const std::string& workload, std::uint64_t seed,
                const std::string& root);

/// Writes every unit, plus `expect.json` (path -> codes / clean) under
/// inputs.root for the output checks.
void write_inputs(const Inputs& inputs);

/// The header an edit writes: same line count, new bytes.
std::string edit_header(const Unit& unit, std::size_t revision);

}  // namespace perf
