#include "tools/shard_merge.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <future>
#include <ostream>
#include <system_error>
#include <utility>

#include "pdb/format.h"
#include "pdb/validate.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace pdt::tools {
namespace {

namespace fs = std::filesystem;

/// Run-scoped spill directory, created at the first spill and recursively
/// removed on destruction — a failed or interrupted merge cleans up
/// exactly like a successful one.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  ~TempDir() {
    if (!created_) return;
    std::error_code ec;
    fs::remove_all(path_, ec);  // best-effort: never throw from a dtor
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] bool create() {
    if (created_) return true;
    std::error_code ec;
    fs::create_directories(path_, ec);
    created_ = !ec;
    return created_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool created_ = false;
};

std::uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

/// One input, read and checked: readable, and no dangling item references
/// (merging those would silently corrupt the combined database).
struct Loaded {
  ductape::PDB pdb;
  std::optional<MergeError> error;
};

Loaded load(const std::string& path, pdb::Sections sections) {
  Loaded in{ductape::PDB::read(path, sections), std::nullopt};
  if (!in.pdb.valid()) {
    in.error = MergeError{path, in.pdb.errorMessage(), {}};
  } else if (auto dangling = pdb::validate(in.pdb.raw(), sections);
             !dangling.empty()) {
    in.error = MergeError{path, {}, std::move(dangling)};
  }
  return in;
}

/// Writes `acc` to a fresh spill file and reopens it, so the accumulator
/// pins the spill file's bytes instead of every input folded into it.
/// Spill I/O is bookkeeping: counted via merge.spills, not pdb.files_*.
std::optional<MergeError> spill(ductape::PDB& acc, TempDir& dir,
                                std::uint64_t seq) {
  if (!dir.create())
    return MergeError{{}, "cannot create spill directory '" + dir.path() + "'", {}};
  const std::string path = dir.path() + "/part_" + std::to_string(seq) + ".pdb";
  PDT_TRACE_SCOPE("merge.spill", path);
  {
    const trace::CounterScope mute(nullptr);
    if (!acc.write(path, pdb::Format::Binary))
      return MergeError{{}, "cannot write spill file in '" + dir.path() + "'", {}};
    ductape::PDB reopened = ductape::PDB::read(path);
    if (!reopened.valid())
      return MergeError{{}, "cannot reload spill file '" + path +
                                "': " + reopened.errorMessage(), {}};
    acc = std::move(reopened);
  }
  // The reopened database keeps its bytes alive (POSIX keeps an unlinked
  // mapping readable), so at most one spill file is on disk at a time.
  std::error_code ec;
  fs::remove(path, ec);
  trace::count(trace::Counter::MergeSpills);
  return std::nullopt;
}

}  // namespace

MergeResult mergeFiles(const std::vector<std::string>& paths,
                       const MergeOptions& opts) {
  MergeResult result;
  TempDir spill_dir(opts.temp_dir);

  // Reads run ahead of the fold on the pool, at most `window` in flight
  // so the resident inputs stay bounded; the fold takes them in order.
  const std::size_t jobs = std::max<std::size_t>(opts.jobs, 1);
  const std::size_t window = 2 * jobs;
  std::optional<ThreadPool> pool;
  if (jobs > 1 && paths.size() > 1) pool.emplace(jobs);
  std::deque<std::future<Loaded>> ahead;
  std::size_t next_read = 0;

  std::optional<ductape::PDB> acc;
  std::size_t folded = 0;
  std::uint64_t pinned = 0;  // input bytes absorbed since the last spill
  for (std::size_t i = 0; i < paths.size(); ++i) {
    Loaded in;
    if (pool) {
      for (; next_read < paths.size() && next_read < i + window; ++next_read) {
        ahead.push_back(pool->submit([&paths, &opts, next_read] {
          return load(paths[next_read], opts.sections);
        }));
      }
      in = ahead.front().get();
      ahead.pop_front();
    } else {
      in = load(paths[i], opts.sections);
    }
    if (in.error) {
      // Keep reading so every bad input is reported at once.
      result.errors.push_back(std::move(*in.error));
      acc.reset();
    }
    if (!result.errors.empty()) continue;

    if (!acc) {
      acc = std::move(in.pdb);
    } else {
      acc->merge(in.pdb);
    }
    ++folded;
    pinned += fileSize(paths[i]);
    // Spill only once two inputs are folded (re-serializing one input is
    // a pure round trip) and never after the last one.
    if (opts.mem_budget_bytes != 0 && pinned > opts.mem_budget_bytes &&
        folded >= 2 && i + 1 < paths.size()) {
      if (auto error = spill(*acc, spill_dir, result.stats.spills)) {
        result.errors.push_back(std::move(*error));
        return result;  // ~ThreadPool drains the reads still in flight
      }
      ++result.stats.spills;
      pinned = 0;
    }
  }
  // An empty fold is the empty database.
  if (result.errors.empty())
    result.merged.emplace(acc ? std::move(*acc) : ductape::PDB{});
  return result;
}

void printMergeErrors(const std::vector<MergeError>& errors,
                      std::string_view tool, std::string_view action,
                      std::ostream& os) {
  for (const MergeError& e : errors) {
    if (!e.message.empty()) os << tool << ": " << e.message << '\n';
    for (const std::string& d : e.dangling)
      os << tool << ": " << e.path << ": " << d << '\n';
    if (!e.dangling.empty())
      os << tool << ": '" << e.path
         << "' references undefined items; refusing to " << action << '\n';
  }
}

}  // namespace pdt::tools
