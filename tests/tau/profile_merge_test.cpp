// tauprof merge library tests: binary thread-profile reading (including
// corruption rejection), deterministic aggregation across threads and
// contexts, render stability under input reordering, and dp-section
// attachment to a program database. The runtime-written files come from
// real in-process worker threads, so this also locks the writer and the
// reader to the shared format header.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "TAU.h"
#include "pdb/format.h"
#include "pdb/validate.h"
#include "tau/profile_merge.h"

namespace {

namespace fs = std::filesystem;
using pdt::tau::MergedProfile;
using pdt::tau::ThreadProfile;
using pdt::tau::ThreadProfileRecord;

void mergeLeaf() {
  TAU_PROFILE("mergeLeaf()", std::string(""), TAU_DEFAULT);
  volatile int sink = 0;
  for (int i = 0; i < 100; ++i) sink = sink + i;
}

fs::path freshDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("tau_merge_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

ThreadProfile makeProfile(std::uint32_t node, std::uint32_t context,
                          std::uint32_t thread,
                          std::vector<ThreadProfileRecord> records) {
  ThreadProfile tp;
  tp.node = node;
  tp.context = context;
  tp.thread = thread;
  tp.records = std::move(records);
  return tp;
}

TEST(ProfileMerge, SumsCountsAndTracksThreadsAndContexts) {
  const std::vector<ThreadProfile> inputs = {
      makeProfile(0, 100, 0, {{"push()", "Stack<int>", 1, 10, 2, 900, 400}}),
      makeProfile(0, 100, 1, {{"push()", "Stack<int>", 1, 5, 1, 600, 300}}),
      makeProfile(0, 200, 0,
                  {{"push()", "Stack<int>", 1, 1, 0, 100, 100},
                   {"main()", "", 0, 1, 3, 5000, 1000}}),
  };
  const MergedProfile merged = pdt::tau::mergeThreadProfiles(inputs);
  EXPECT_EQ(merged.thread_files, 3u);
  EXPECT_EQ(merged.context_count, 2u);
  ASSERT_EQ(merged.entries.size(), 2u);

  const pdt::tau::MergedEntry* push = merged.find("push()");
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->calls, 16u);
  EXPECT_EQ(push->child_calls, 3u);
  EXPECT_EQ(push->inclusive_ns, 1600u);
  EXPECT_EQ(push->exclusive_ns, 800u);
  EXPECT_EQ(push->threads, 3u);
  EXPECT_EQ(push->contexts, 2u);
  EXPECT_EQ(push->displayName(), "push() <Stack<int>>");

  const pdt::tau::MergedEntry* main_fn = merged.find("main()");
  ASSERT_NE(main_fn, nullptr);
  EXPECT_EQ(main_fn->threads, 1u);
  EXPECT_EQ(main_fn->contexts, 1u);
  // Sorted by exclusive time: main() (1000ns) before push() (800ns).
  EXPECT_EQ(merged.entries[0].name, "main()");
}

TEST(ProfileMerge, RenderIsByteIdenticalUnderInputReordering) {
  std::vector<ThreadProfile> inputs = {
      makeProfile(0, 1, 0,
                  {{"a()", "", 0, 3, 0, 300, 300},
                   {"b()", "T", 0, 2, 0, 300, 300}}),
      makeProfile(0, 2, 0, {{"b()", "T", 0, 8, 1, 700, 700}}),
      makeProfile(1, 1, 0, {{"a()", "", 0, 1, 0, 50, 50}}),
      makeProfile(0, 1, 1, {{"c()", "", 0, 9, 0, 300, 300}}),
  };
  std::ostringstream text_a, csv_a;
  pdt::tau::renderMergedProfile(pdt::tau::mergeThreadProfiles(inputs), text_a);
  pdt::tau::renderMergedCsv(pdt::tau::mergeThreadProfiles(inputs), csv_a);

  std::reverse(inputs.begin(), inputs.end());
  std::ostringstream text_b, csv_b;
  pdt::tau::renderMergedProfile(pdt::tau::mergeThreadProfiles(inputs), text_b);
  pdt::tau::renderMergedCsv(pdt::tau::mergeThreadProfiles(inputs), csv_b);

  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_EQ(csv_a.str(), csv_b.str());
  // Equal-exclusive entries tie-break on name: a() and c() both 350ns.
  const MergedProfile merged = pdt::tau::mergeThreadProfiles(inputs);
  ASSERT_EQ(merged.entries.size(), 3u);
  EXPECT_EQ(merged.entries[0].name, "b()");
  EXPECT_EQ(merged.entries[1].name, "a()");
  EXPECT_EQ(merged.entries[2].name, "c()");
}

TEST(ProfileMerge, ReadsRuntimeWrittenFilesBack) {
  tau::reset();
  const fs::path dir = freshDir("roundtrip");
  constexpr int kThreads = 2;
  constexpr int kCalls = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kCalls; ++i) mergeLeaf();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_GE(tau::writeProfileFiles(dir.string()), 2u);

  std::vector<ThreadProfile> profiles;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string error;
    auto profile =
        pdt::tau::readThreadProfile(entry.path().string(), &error);
    ASSERT_TRUE(profile.has_value()) << error;
    EXPECT_EQ(profile->node, 0u);
    EXPECT_EQ(profile->context, static_cast<std::uint32_t>(::getpid()));
    profiles.push_back(std::move(*profile));
  }
  const MergedProfile merged = pdt::tau::mergeThreadProfiles(profiles);
  const pdt::tau::MergedEntry* leaf = merged.find("mergeLeaf()");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->calls, static_cast<std::uint64_t>(kThreads) * kCalls);
  EXPECT_EQ(leaf->threads, 2u);
  EXPECT_EQ(leaf->contexts, 1u);
  EXPECT_GE(leaf->inclusive_ns, leaf->exclusive_ns);
  fs::remove_all(dir);
}

TEST(ProfileMerge, RejectsCorruptFiles) {
  tau::reset();
  const fs::path dir = freshDir("corrupt");
  mergeLeaf();
  ASSERT_GE(tau::writeProfileFiles(dir.string()), 1u);
  fs::path good;
  for (const auto& entry : fs::directory_iterator(dir)) good = entry.path();
  ASSERT_FALSE(good.empty());

  std::string data;
  {
    std::ifstream in(good, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  const auto writeVariant = [&](const std::string& bytes) {
    const fs::path p = dir / "variant";
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    std::string error;
    const auto result = pdt::tau::readThreadProfile(p.string(), &error);
    EXPECT_FALSE(result.has_value());
    return error;
  };

  // Flipped payload byte: checksum must catch it.
  std::string flipped = data;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  EXPECT_NE(writeVariant(flipped).find("checksum"), std::string::npos);

  // Truncation: also a checksum/size failure, never a crash.
  EXPECT_FALSE(writeVariant(data.substr(0, data.size() - 9)).empty());
  EXPECT_NE(writeVariant(data.substr(0, 10)).find("truncated"),
            std::string::npos);

  // Wrong magic.
  std::string bad_magic = data;
  bad_magic[0] = 'X';
  EXPECT_NE(writeVariant(bad_magic).find("magic"), std::string::npos);

  std::string error;
  EXPECT_FALSE(
      pdt::tau::readThreadProfile((dir / "missing").string(), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ProfileMerge, AttachesDpSectionLinkedToRoutines) {
  pdt::pdb::PdbFile pdb;
  pdt::pdb::RoutineItem push;
  push.name = "push";
  const std::uint32_t push_id = pdb.addRoutine(std::move(push));
  pdt::pdb::RoutineItem pop;
  pop.name = "pop";
  pdb.addRoutine(std::move(pop));

  const std::vector<ThreadProfile> inputs = {
      makeProfile(0, 1, 0,
                  {{"push()", "Stack<int>", 1, 10, 0, 900, 900},
                   {"void pop(T&)", "Stack<int>", 1, 4, 0, 400, 400},
                   {"frob()", "", 0, 2, 0, 100, 100}}),
  };
  const MergedProfile merged = pdt::tau::mergeThreadProfiles(inputs);
  const std::size_t linked = pdt::tau::attachDynProfSection(merged, pdb);
  EXPECT_EQ(linked, 2u);
  ASSERT_EQ(pdb.dynProfs().size(), 3u);

  const auto push_dp = std::find_if(
      pdb.dynProfs().begin(), pdb.dynProfs().end(),
      [](const auto& p) { return p.name == "push() <Stack<int>>"; });
  ASSERT_NE(push_dp, pdb.dynProfs().end());
  EXPECT_EQ(push_dp->routine, push_id);
  EXPECT_EQ(push_dp->calls, 10u);

  const auto frob_dp = std::find_if(
      pdb.dynProfs().begin(), pdb.dynProfs().end(),
      [](const auto& p) { return p.name == "frob()"; });
  ASSERT_NE(frob_dp, pdb.dynProfs().end());
  EXPECT_EQ(frob_dp->routine, 0u);

  EXPECT_TRUE(pdt::pdb::validate(pdb).empty());
  // The attached section survives an ascii -> binary -> ascii round trip.
  const std::string ascii =
      pdt::pdb::writeString(pdb, pdt::pdb::Format::Ascii);
  EXPECT_NE(ascii.find("dp#"), std::string::npos);
  const std::string binary =
      pdt::pdb::writeString(pdb, pdt::pdb::Format::Binary);
  auto reread = pdt::pdb::readBuffer(binary);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(pdt::pdb::writeString(reread.pdb, pdt::pdb::Format::Ascii), ascii);
}

TEST(ProfileMerge, LinksRowsToTheMemberOfTheirType) {
  // Two classes with same-named members; the other class's members get
  // the lower ids, so a link by bare name alone would pick them.
  pdt::pdb::PdbFile pdb;
  pdt::pdb::ClassItem other;
  other.name = "Other";
  const std::uint32_t other_id = pdb.addClass(std::move(other));
  pdt::pdb::ClassItem vec;
  vec.name = "Vec<double>";
  const std::uint32_t vec_id = pdb.addClass(std::move(vec));
  const auto member = [&pdb](std::string_view name, std::uint32_t cls) {
    pdt::pdb::RoutineItem r;
    r.name = name;
    r.parent = pdt::pdb::ItemRef{pdt::pdb::ItemKind::Class, cls};
    return pdb.addRoutine(std::move(r));
  };
  member("size", other_id);
  member("operator()", other_id);
  const std::uint32_t vec_size = member("size", vec_id);
  const std::uint32_t vec_call = member("operator()", vec_id);

  const MergedProfile merged = pdt::tau::mergeThreadProfiles({makeProfile(
      0, 1, 0,
      {{"size()", "Vec<double>", 1, 3, 0, 300, 300},
       {"operator()()", "Vec<double>", 1, 5, 0, 500, 500}})});
  EXPECT_EQ(pdt::tau::attachDynProfSection(merged, pdb), 2u);
  const auto routineOf = [&pdb](std::string_view name) {
    for (const auto& p : pdb.dynProfs())
      if (p.name == name) return p.routine;
    return std::uint32_t{0};
  };
  EXPECT_EQ(routineOf("size() <Vec<double>>"), vec_size);
  EXPECT_EQ(routineOf("operator()() <Vec<double>>"), vec_call);
}

}  // namespace
