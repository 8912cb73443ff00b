// pdbmerge scaling: number of translation units and duplicate ratio.
//
// The paper's claim (Table 2): merging eliminates duplicate template
// instantiations across compilations. The dedup_ratio counter reports
// how much of the input volume the merge collapsed.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/format.h"
#include "tools/shard_merge.h"
#include "tools/synth.h"

namespace {

pdt::ductape::PDB makeUnit(int unit, int shared, int unique) {
  pdt::SourceManager sm;
  pdt::DiagnosticEngine diags;
  pdt::frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("tu" + std::to_string(unit) + ".cpp",
                                 pdt::bench::mergeUnit(unit, shared, unique));
  return pdt::ductape::PDB::fromPdbFile(pdt::ilanalyzer::analyze(result, sm));
}

void BM_MergeUnits(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const int shared = static_cast<int>(state.range(1));
  const int unique = static_cast<int>(state.range(2));

  std::vector<pdt::ductape::PDB> inputs;
  std::size_t input_items = 0;
  for (int u = 0; u < units; ++u) {
    inputs.push_back(makeUnit(u, shared, unique));
    input_items += inputs.back().getItemVec().size();
  }

  std::size_t merged_items = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // merge() mutates; re-clone the first unit via its raw representation.
    pdt::ductape::PDB merged =
        pdt::ductape::PDB::fromPdbFile(inputs[0].raw());
    state.ResumeTiming();
    for (int u = 1; u < units; ++u) merged.merge(inputs[u]);
    merged_items = merged.getItemVec().size();
    benchmark::DoNotOptimize(merged);
  }
  state.counters["input_items"] = static_cast<double>(input_items);
  state.counters["merged_items"] = static_cast<double>(merged_items);
  state.counters["dedup_ratio"] =
      input_items == 0 ? 0.0
                       : 1.0 - static_cast<double>(merged_items) /
                                   static_cast<double>(input_items);
}
// All shared (high duplication), mixed, all unique (no duplication);
// 16 vs 128 units of the same shape shows the per-step cost staying flat
// as the merged database grows.
BENCHMARK(BM_MergeUnits)
    ->Args({4, 20, 0})
    ->Args({4, 10, 10})
    ->Args({4, 0, 20})
    ->Args({16, 10, 2})
    ->Args({128, 10, 2});

/// A synthetic on-disk corpus of `units` binary databases (written once
/// per size and reused across iterations and configurations).
const std::vector<std::string>& corpusFiles(int units) {
  static std::map<int, std::vector<std::string>> cache;
  auto it = cache.find(units);
  if (it != cache.end()) return it->second;

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("pdt_bench_merge_" + std::to_string(units));
  fs::create_directories(dir);
  std::vector<std::string> files;
  for (int u = 0; u < units; ++u) {
    const fs::path path = dir / ("tu" + std::to_string(u) + ".pdb");
    pdt::pdb::writeFile(pdt::tools::synthUnit(u), path.string(),
                        pdt::pdb::Format::Binary);
    files.push_back(path.string());
  }
  return cache.emplace(units, std::move(files)).first->second;
}

/// The file fold (tools::mergeFiles) at 100-1000x krylov scale: units x
/// read jobs x memory budget. budget_mb=0 never spills; small budgets
/// exercise the spill-and-reopen round trip, and the spills counter
/// records how often each configuration paid for it.
void BM_MergeFiles(benchmark::State& state) {
  const int units = static_cast<int>(state.range(0));
  const auto jobs = static_cast<std::size_t>(state.range(1));
  const auto budget_mb = static_cast<std::uint64_t>(state.range(2));
  const std::vector<std::string>& files = corpusFiles(units);

  pdt::tools::MergeStats stats;
  std::size_t merged_items = 0;
  for (auto _ : state) {
    pdt::tools::MergeOptions opts;
    opts.jobs = jobs;
    opts.mem_budget_bytes = budget_mb * 1024 * 1024;
    opts.temp_dir = (std::filesystem::temp_directory_path() /
                     "pdt_bench_merge_spill")
                        .string();
    auto result = pdt::tools::mergeFiles(files, opts);
    if (!result.ok()) {
      state.SkipWithError("merge failed");
      break;
    }
    stats = result.stats;
    merged_items = result.merged->getItemVec().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["merged_items"] = static_cast<double>(merged_items);
  state.counters["spills"] = static_cast<double>(stats.spills);
  state.SetItemsProcessed(state.iterations() * units);
}
// units x jobs x budget_mb: serial vs parallel, unlimited vs tight.
BENCHMARK(BM_MergeFiles)
    ->Args({64, 1, 0})
    ->Args({64, 8, 0})
    ->Args({64, 8, 4})
    ->Args({256, 8, 0})
    ->Args({256, 8, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
