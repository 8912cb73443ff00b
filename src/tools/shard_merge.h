// The one file-fold path behind pdbmerge, pdbcheck and pdbduct.
//
// mergeFiles() reads and validates the input databases and folds them
// into one with ductape::PDB::merge, strictly in input order. A merge
// step costs time proportional to the input it absorbs, so the ordered
// fold is linear in the corpus size; `jobs` only parallelizes the reads
// and validations (a fixed look-ahead window of inputs in flight), never
// the fold, so the result is byte-identical at any job count.
//
// With a memory budget the fold stays external: whenever the inputs
// absorbed since the last spill exceed the budget, the accumulator is
// written to a binary-v2 spill file and reopened from it, which releases
// the input buffers it pinned (the zero-copy reader keeps every folded
// input's bytes alive otherwise). A spill is a lossless round trip, so
// the output is byte-identical at any budget too (asserted by
// tests/integration/sharded_merge_test and the scripts/ci.sh gate).
//
// Spill files live in a run-scoped temp directory that is removed on
// success *and* failure — an interrupted merge leaves no orphaned files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ductape/ductape.h"

namespace pdt::tools {

struct MergeOptions {
  /// Threads that read and validate inputs ahead of the fold.
  std::size_t jobs = 1;
  /// Soft memory budget, in bytes; 0 = unlimited (never spill). The
  /// accumulator is spilled and reopened whenever the on-disk bytes of
  /// the inputs it absorbed since the last spill exceed it.
  std::uint64_t mem_budget_bytes = 0;
  /// Run-scoped directory for spill files. Created on demand, removed
  /// (recursively) when the merge finishes, successfully or not.
  std::string temp_dir = "pdbmerge.tmp";
  /// Sections to read from each input; validation skips references into
  /// the sections left out.
  pdb::Sections sections = pdb::Sections::All;
};

struct MergeStats {
  std::uint64_t spills = 0;
};

/// An input that could not be used or, with an empty path, a failure of
/// the merge itself.
struct MergeError {
  std::string path;
  /// Why the input could not be read (or the merge failed); empty when
  /// the input was read but references undefined items.
  std::string message;
  /// pdb::validate findings: the input's dangling references.
  std::vector<std::string> dangling;
};

struct MergeResult {
  /// Engaged on success.
  std::optional<ductape::PDB> merged;
  /// Every refused input, in input order, then any merge failure.
  std::vector<MergeError> errors;
  MergeStats stats;
  [[nodiscard]] bool ok() const { return merged.has_value(); }
};

[[nodiscard]] MergeResult mergeFiles(const std::vector<std::string>& paths,
                                     const MergeOptions& opts);

/// Prints `errors` one "<tool>: ..." line at a time. An input with
/// dangling references gets one line per reference, then "'<path>'
/// references undefined items; refusing to <action>".
void printMergeErrors(const std::vector<MergeError>& errors,
                      std::string_view tool, std::string_view action,
                      std::ostream& os);

}  // namespace pdt::tools
