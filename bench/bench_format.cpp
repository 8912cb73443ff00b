// Storage-format throughput: ASCII vs binary PDB v2 reads, lazy
// section-masked reads against the binary section index, and the merge
// pipeline fed from each format (docs/PDB_FORMAT.md §binary-v2).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "ductape/ductape.h"
#include "pdb/format.h"
#include "pdb/pdb.h"

namespace {

using pdt::pdb::Format;
using pdt::pdb::Sections;

/// A database with the section shape of real cross-TU merges: routines
/// with calls and extents, a large type section, and classes with
/// members — so a section-masked read has real bytes to skip.
pdt::pdb::PdbFile synthesize(int routines) {
  pdt::pdb::PdbFile pdb;
  pdt::pdb::SourceFileItem file;
  file.name = "synth.cpp";
  const auto file_id = pdb.addSourceFile(std::move(file));

  pdt::pdb::TypeItem sig;
  sig.name = "int (int)";
  sig.kind = "func";
  const auto sig_id = pdb.addType(std::move(sig));
  for (int i = 0; i < routines; ++i) {
    pdt::pdb::TypeItem ty;
    ty.name = pdb.own("T" + std::to_string(i) + "<int>");
    ty.kind = "tparam";
    pdb.addType(std::move(ty));
  }

  for (int i = 0; i < routines / 10 + 1; ++i) {
    pdt::pdb::ClassItem cls;
    cls.name = pdb.own("C" + std::to_string(i));
    cls.kind = "class";
    cls.location = {file_id, static_cast<std::uint32_t>(i + 1), 1};
    pdt::pdb::ClassItem::Member mem;
    mem.name = "field";
    mem.access = "priv";
    mem.kind = "var";
    mem.type = {pdt::pdb::ItemKind::Type, sig_id};
    cls.members.push_back(std::move(mem));
    pdb.addClass(std::move(cls));
  }

  for (int i = 0; i < routines; ++i) {
    pdt::pdb::RoutineItem r;
    r.name = pdb.own("fn" + std::to_string(i));
    r.location = {file_id, static_cast<std::uint32_t>(i + 1), 1};
    r.signature = sig_id;
    r.defined = true;
    if (i > 0) {
      r.calls.push_back({static_cast<std::uint32_t>(i), false,
                         {file_id, static_cast<std::uint32_t>(i + 1), 5}});
    }
    r.extent = {{file_id, static_cast<std::uint32_t>(i + 1), 1},
                {file_id, static_cast<std::uint32_t>(i + 1), 10},
                {file_id, static_cast<std::uint32_t>(i + 1), 12},
                {file_id, static_cast<std::uint32_t>(i + 1), 40}};
    pdb.addRoutine(std::move(r));
  }
  return pdb;
}

void readBench(benchmark::State& state, Format format, Sections sections) {
  const std::string bytes =
      pdt::pdb::writeString(synthesize(static_cast<int>(state.range(0))), format);
  for (auto _ : state) {
    auto result = pdt::pdb::readBuffer(bytes, sections);
    if (!result.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(result.pdb);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ReadAscii(benchmark::State& state) {
  readBench(state, Format::Ascii, Sections::All);
}
BENCHMARK(BM_ReadAscii)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ReadBinary(benchmark::State& state) {
  readBench(state, Format::Binary, Sections::All);
}
BENCHMARK(BM_ReadBinary)->Arg(100)->Arg(1000)->Arg(10000);

// Lazy single-section read (the pdbtree --includes shape): the binary
// section index skips every unrequested section in O(1).
void BM_ReadBinaryLazy(benchmark::State& state) {
  readBench(state, Format::Binary, Sections::SourceFiles);
}
BENCHMARK(BM_ReadBinaryLazy)->Arg(100)->Arg(1000)->Arg(10000);

// The ASCII reader still scans every line under a mask; this is the
// baseline the binary index beats.
void BM_ReadAsciiLazy(benchmark::State& state) {
  readBench(state, Format::Ascii, Sections::SourceFiles);
}
BENCHMARK(BM_ReadAsciiLazy)->Arg(1000)->Arg(10000);

void mergeBench(benchmark::State& state, Format format) {
  constexpr int kInputs = 4;
  const std::string bytes =
      pdt::pdb::writeString(synthesize(static_cast<int>(state.range(0))), format);
  for (auto _ : state) {
    std::vector<pdt::ductape::PDB> inputs;
    inputs.reserve(kInputs);
    for (int i = 0; i < kInputs; ++i) {
      auto result = pdt::pdb::readBuffer(bytes);
      if (!result.ok()) state.SkipWithError("parse failed");
      inputs.push_back(pdt::ductape::PDB::fromPdbFile(std::move(result.pdb)));
    }
    pdt::ductape::PDB merged = std::move(inputs.front());
    for (int i = 1; i < kInputs; ++i) merged.merge(inputs[i]);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * kInputs);
}

void BM_MergeFromAscii(benchmark::State& state) {
  mergeBench(state, Format::Ascii);
}
BENCHMARK(BM_MergeFromAscii)->Arg(1000);

void BM_MergeFromBinary(benchmark::State& state) {
  mergeBench(state, Format::Binary);
}
BENCHMARK(BM_MergeFromBinary)->Arg(1000);

}  // namespace

#include "bench/bench_main.h"
PDT_BENCH_MAIN()
