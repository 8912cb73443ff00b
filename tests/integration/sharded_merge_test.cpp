// The external merge must be invisible: whatever the job count and
// however small the memory budget (i.e. however many spill round trips
// happen), mergeFiles produces a database byte-identical to the in-memory
// left fold of PDB::merge over the same inputs, and its run-scoped spill
// directory is gone afterward — on failure too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ductape/ductape.h"
#include "pdb/format.h"
#include "pdb/writer.h"
#include "tools/shard_merge.h"
#include "tools/synth.h"

namespace pdt::tools {
namespace {

namespace fs = std::filesystem;

class ShardedMergeTest : public ::testing::Test {
 protected:
  static constexpr int kUnits = 24;

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdt_shard_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    for (int i = 0; i < kUnits; ++i) {
      const fs::path path = dir_ / ("tu" + std::to_string(i) + ".pdb");
      ASSERT_TRUE(pdb::writeFile(synthUnit(i), path.string(),
                                 pdb::Format::Binary));
      inputs_.push_back(path.string());
      total_input_bytes_ += fs::file_size(path);
    }
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// The in-memory left fold's canonical serialization — the
  /// byte-identity reference for every jobs/budget configuration.
  [[nodiscard]] std::string inMemoryAscii() const {
    ductape::PDB merged = ductape::PDB::read(inputs_.front());
    for (std::size_t i = 1; i < inputs_.size(); ++i) {
      const ductape::PDB unit = ductape::PDB::read(inputs_[i]);
      EXPECT_TRUE(unit.valid()) << unit.errorMessage();
      merged.merge(unit);
    }
    return pdb::writeToString(merged.raw());
  }

  [[nodiscard]] std::string tempDir() const {
    return (dir_ / "merge.tmp").string();
  }

  fs::path dir_;
  std::vector<std::string> inputs_;
  std::uint64_t total_input_bytes_ = 0;
};

TEST_F(ShardedMergeTest, ByteIdenticalAcrossJobsAndBudgets) {
  const std::string reference = inMemoryAscii();
  // Budgets: unlimited, roomy, and one well below the total input size
  // (so the accumulator must spill to stay under it).
  const std::uint64_t budgets[] = {0, total_input_bytes_ * 4,
                                   total_input_bytes_ / 6};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{5}, std::size_t{8}}) {
    for (const std::uint64_t budget : budgets) {
      MergeOptions opts;
      opts.jobs = jobs;
      opts.mem_budget_bytes = budget;
      opts.temp_dir = tempDir();
      const MergeResult result = mergeFiles(inputs_, opts);
      ASSERT_TRUE(result.ok())
          << "jobs=" << jobs << " budget=" << budget << ": "
          << (result.errors.empty() ? "?" : result.errors.front().message);
      EXPECT_EQ(pdb::writeToString(result.merged->raw()), reference)
          << "jobs=" << jobs << " budget=" << budget;
      if (budget == 0 || budget > total_input_bytes_)
        EXPECT_EQ(result.stats.spills, 0u);
      else
        EXPECT_GT(result.stats.spills, 0u);
      EXPECT_FALSE(fs::exists(tempDir()))
          << "spill dir survived jobs=" << jobs << " budget=" << budget;
    }
  }
}

TEST_F(ShardedMergeTest, TinyBudgetForcesSpillsWithoutChangingBytes) {
  const std::string reference = inMemoryAscii();
  MergeOptions opts;
  opts.jobs = 2;
  // The budget is about three inputs' worth, so the fold has to spill
  // every few inputs.
  opts.mem_budget_bytes = (total_input_bytes_ / kUnits) * 3;
  opts.temp_dir = tempDir();
  const MergeResult result = mergeFiles(inputs_, opts);
  ASSERT_TRUE(result.ok())
      << (result.errors.empty() ? "?" : result.errors.front().message);
  EXPECT_GT(result.stats.spills, 0u);
  EXPECT_EQ(pdb::writeToString(result.merged->raw()), reference);
  EXPECT_FALSE(fs::exists(tempDir()));
}

TEST_F(ShardedMergeTest, UnlimitedBudgetNeverSpills) {
  MergeOptions opts;
  opts.jobs = 4;
  opts.temp_dir = tempDir();
  const MergeResult result = mergeFiles(inputs_, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.stats.spills, 0u);
  EXPECT_FALSE(fs::exists(tempDir()));
}

TEST_F(ShardedMergeTest, BadInputIsReportedInOrderAndTempDirIsCleaned) {
  // Corrupt the middle input; keep a second, later bad input to check
  // the errors come back in input order even with reads in flight.
  {
    std::ofstream os(inputs_[kUnits / 2], std::ios::binary | std::ios::trunc);
    os << "not a database";
  }
  {
    std::ofstream os(inputs_[kUnits - 1],
                     std::ios::binary | std::ios::trunc);
    os << "also not a database";
  }
  MergeOptions opts;
  opts.jobs = 3;
  opts.mem_budget_bytes = total_input_bytes_ / 6;  // spill dir gets created
  opts.temp_dir = tempDir();
  const MergeResult result = mergeFiles(inputs_, opts);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_NE(result.errors[0].path.find("tu" + std::to_string(kUnits / 2)),
            std::string::npos)
      << result.errors[0].path;
  EXPECT_NE(result.errors[1].path.find("tu" + std::to_string(kUnits - 1)),
            std::string::npos)
      << result.errors[1].path;
  EXPECT_FALSE(fs::exists(tempDir())) << "spill dir survived failed merge";
}

}  // namespace
}  // namespace pdt::tools
