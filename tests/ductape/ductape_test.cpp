// DUCTAPE tests: the Figure-4 class hierarchy, pointer navigation, the
// PDB whole-database queries, and pdbmerge's duplicate elimination.
#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/format.h"
#include "pdb/writer.h"

namespace pdt::ductape {
namespace {

// ---- Figure 4: every is-a edge of the hierarchy, checked at compile time.
static_assert(std::is_base_of_v<pdbSimpleItem, pdbFile>);
static_assert(std::is_base_of_v<pdbSimpleItem, pdbItem>);
static_assert(std::is_base_of_v<pdbItem, pdbMacro>);
static_assert(std::is_base_of_v<pdbItem, pdbType>);
static_assert(std::is_base_of_v<pdbItem, pdbFatItem>);
static_assert(std::is_base_of_v<pdbFatItem, pdbTemplate>);
static_assert(std::is_base_of_v<pdbFatItem, pdbNamespace>);
static_assert(std::is_base_of_v<pdbFatItem, pdbTemplateItem>);
static_assert(std::is_base_of_v<pdbTemplateItem, pdbClass>);
static_assert(std::is_base_of_v<pdbTemplateItem, pdbRoutine>);
// ...and the negative edges that keep the tree a tree.
static_assert(!std::is_base_of_v<pdbItem, pdbFile>);
static_assert(!std::is_base_of_v<pdbFatItem, pdbMacro>);
static_assert(!std::is_base_of_v<pdbTemplateItem, pdbNamespace>);

PDB compileToPdb(const std::string& name, const std::string& source,
                 std::string* diag_out = nullptr) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, source);
  if (diag_out != nullptr) {
    for (const auto& d : diags.all()) *diag_out += d.message + "\n";
  }
  return PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
}

constexpr const char* kStackSource = R"(
template <class Object>
class Stack {
public:
    explicit Stack(int capacity = 10) : topOfStack(-1) {}
    bool isEmpty() const { return topOfStack == -1; }
    void push(const Object& x) { topOfStack = topOfStack + 1; }
    Object topAndPop() { Object r; pop(); return r; }
    void pop() { topOfStack = topOfStack - 1; }
private:
    int topOfStack;
};
int main() {
    Stack<int> s;
    s.push(3);
    while (!s.isEmpty())
        s.topAndPop();
    return 0;
}
)";

TEST(Ductape, VectorsArePopulated) {
  std::string diag;
  PDB pdb = compileToPdb("stack.cpp", kStackSource, &diag);
  EXPECT_TRUE(diag.empty()) << diag;
  EXPECT_EQ(pdb.getFileVec().size(), 1u);
  EXPECT_FALSE(pdb.getRoutineVec().empty());
  EXPECT_FALSE(pdb.getClassVec().empty());
  EXPECT_FALSE(pdb.getTypeVec().empty());
  EXPECT_FALSE(pdb.getTemplateVec().empty());
  EXPECT_EQ(pdb.getItemVec().size(),
            pdb.getFileVec().size() + pdb.getRoutineVec().size() +
                pdb.getClassVec().size() + pdb.getTypeVec().size() +
                pdb.getTemplateVec().size() + pdb.getNamespaceVec().size() +
                pdb.getMacroVec().size());
}

TEST(Ductape, NavigationThroughPointers) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbClass* stack = nullptr;
  for (const pdbClass* c : pdb.getClassVec()) {
    if (c->name() == "Stack<int>") stack = c;
  }
  ASSERT_NE(stack, nullptr);
  // Class -> template -> kind.
  ASSERT_NE(stack->isTemplate(), nullptr);
  EXPECT_EQ(stack->isTemplate()->name(), "Stack");
  EXPECT_EQ(stack->isTemplate()->kind(), pdbItem::TE_CLASS);
  // Class -> member functions -> parent class (cycle closes).
  ASSERT_FALSE(stack->funcMembers().empty());
  const pdbRoutine* push = nullptr;
  for (const pdbRoutine* r : stack->funcMembers()) {
    if (r->name() == "push") push = r;
  }
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->parentClass(), stack);
  EXPECT_EQ(push->fullName(), "Stack<int>::push");
  EXPECT_EQ(push->access(), pdbItem::AC_PUB);
  // Routine -> signature type -> argument types.
  ASSERT_NE(push->signature(), nullptr);
  EXPECT_EQ(push->signature()->kind(), pdbType::TY_FUNC);
  ASSERT_EQ(push->signature()->arguments().size(), 1u);
  EXPECT_EQ(push->signature()->arguments()[0]->kind(), pdbType::TY_REF);
}

TEST(Ductape, CalleesAndCallers) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbRoutine* main_fn = nullptr;
  const pdbRoutine* push = nullptr;
  const pdbRoutine* pop = nullptr;
  const pdbRoutine* top_and_pop = nullptr;
  for (const pdbRoutine* r : pdb.getRoutineVec()) {
    if (r->name() == "main") main_fn = r;
    if (r->name() == "push") push = r;
    if (r->name() == "pop") pop = r;
    if (r->name() == "topAndPop") top_and_pop = r;
  }
  ASSERT_NE(main_fn, nullptr);
  ASSERT_NE(push, nullptr);
  ASSERT_NE(pop, nullptr);
  ASSERT_NE(top_and_pop, nullptr);

  bool main_calls_push = false;
  for (const pdbCall* call : main_fn->callees())
    main_calls_push |= call->call() == push;
  EXPECT_TRUE(main_calls_push);

  // Inverse edges: push's callers include main.
  bool push_called_by_main = false;
  for (const pdbCall* call : push->callers())
    push_called_by_main |= call->call() == main_fn;
  EXPECT_TRUE(push_called_by_main);

  // Transitive: topAndPop calls pop.
  bool tap_calls_pop = false;
  for (const pdbCall* call : top_and_pop->callees())
    tap_calls_pop |= call->call() == pop;
  EXPECT_TRUE(tap_calls_pop);
}

TEST(Ductape, CallTreeRoots) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const auto roots = pdb.getCallTreeRoots();
  bool main_is_root = false;
  for (const pdbRoutine* r : roots) main_is_root |= r->name() == "main";
  EXPECT_TRUE(main_is_root);
  for (const pdbRoutine* r : roots) EXPECT_NE(r->name(), "push");
}

TEST(Ductape, ClassHierarchyRootsAndDerived) {
  PDB pdb = compileToPdb("shapes.cpp", R"(
class Shape { public: virtual double area() const { return 0.0; } };
class Circle : public Shape { public: double area() const { return 3.14; } };
class Square : public Shape {};
class RedSquare : public Square {};
)");
  const auto roots = pdb.getClassHierarchyRoots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name(), "Shape");
  EXPECT_EQ(roots[0]->derivedClasses().size(), 2u);
  const pdbClass* square = nullptr;
  for (const pdbClass* c : pdb.getClassVec()) {
    if (c->name() == "Square") square = c;
  }
  ASSERT_NE(square, nullptr);
  ASSERT_EQ(square->derivedClasses().size(), 1u);
  EXPECT_EQ(square->derivedClasses()[0]->name(), "RedSquare");
  ASSERT_EQ(square->baseClasses().size(), 1u);
  EXPECT_EQ(square->baseClasses()[0].base()->name(), "Shape");
}

TEST(Ductape, IncludeTreeRoots) {
  SourceManager sm;
  DiagnosticEngine diags;
  sm.addVirtualFile("common.h", "int shared;\n");
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("main.cpp", "#include \"common.h\"\nint m;\n");
  PDB pdb = PDB::fromPdbFile(ilanalyzer::analyze(result, sm));
  const auto roots = pdb.getIncludeTreeRoots();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name(), "main.cpp");
  ASSERT_EQ(roots[0]->includes().size(), 1u);
  EXPECT_EQ(roots[0]->includes()[0]->name(), "common.h");
}

TEST(Ductape, FlagsSupportCycleCuts) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  const pdbRoutine* r = pdb.getRoutineVec().front();
  EXPECT_EQ(r->flag(), INACTIVE);
  r->flag(ACTIVE);
  EXPECT_EQ(r->flag(), ACTIVE);
  r->flag(INACTIVE);
  EXPECT_EQ(r->flag(), INACTIVE);
}

TEST(Ductape, WriteReadRoundTrip) {
  PDB pdb = compileToPdb("stack.cpp", kStackSource);
  std::ostringstream ss;
  pdb.write(ss);
  EXPECT_NE(ss.str().find("<PDB 1.0>"), std::string::npos);
  EXPECT_NE(ss.str().find("Stack<int>"), std::string::npos);
}

TEST(Ductape, AliasTemplateKindIsExposed) {
  PDB pdb = compileToPdb("alias.cpp", R"(
template <class T> using Handle = T*;
Handle<int> h;
)");
  const pdbTemplate* alias = nullptr;
  for (const pdbTemplate* t : pdb.getTemplateVec()) {
    if (t->name() == "Handle") alias = t;
  }
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias->kind(), pdbItem::TE_ALIAS);
}

TEST(Ductape, ReadMissingFileReportsError) {
  PDB pdb = PDB::read("/nonexistent/never.pdb");
  EXPECT_FALSE(pdb.valid());
  EXPECT_FALSE(pdb.errorMessage().empty());
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

constexpr const char* kLibHeader = R"(
#ifndef BOX_H
#define BOX_H
template <class T>
class Box {
public:
    void put(const T& x) { value = x; }
    T value;
};
#endif
)";

TEST(Ductape, MergeEliminatesDuplicateInstantiations) {
  // Two translation units both instantiate Box<int>: after the merge
  // there must be exactly one Box<int> and one Box template (Table 2).
  SourceManager sm1;
  DiagnosticEngine diags1;
  sm1.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe1(sm1, diags1);
  auto r1 = fe1.compileSource(
      "tu1.cpp", "#include \"box.h\"\nvoid f1() { Box<int> b; b.put(1); }\n");
  PDB pdb1 = PDB::fromPdbFile(ilanalyzer::analyze(r1, sm1));

  SourceManager sm2;
  DiagnosticEngine diags2;
  sm2.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe2(sm2, diags2);
  auto r2 = fe2.compileSource(
      "tu2.cpp",
      "#include \"box.h\"\nvoid f2() { Box<int> b; Box<char> c; b.put(2); }\n");
  PDB pdb2 = PDB::fromPdbFile(ilanalyzer::analyze(r2, sm2));

  const auto count = [](const PDB& p, std::string_view name) {
    std::size_t n = 0;
    for (const pdbClass* c : p.getClassVec()) n += c->name() == name;
    return n;
  };
  ASSERT_EQ(count(pdb1, "Box<int>"), 1u);
  ASSERT_EQ(count(pdb2, "Box<int>"), 1u);

  pdb1.merge(pdb2);
  EXPECT_EQ(count(pdb1, "Box<int>"), 1u);   // duplicate eliminated
  EXPECT_EQ(count(pdb1, "Box<char>"), 1u);  // new instantiation kept

  std::size_t box_templates = 0;
  for (const pdbTemplate* t : pdb1.getTemplateVec())
    box_templates += t->name() == "Box" && t->kind() == pdbItem::TE_CLASS;
  EXPECT_EQ(box_templates, 1u);

  // Both drivers survive.
  bool has_f1 = false, has_f2 = false;
  for (const pdbRoutine* r : pdb1.getRoutineVec()) {
    has_f1 |= r->name() == "f1";
    has_f2 |= r->name() == "f2";
  }
  EXPECT_TRUE(has_f1);
  EXPECT_TRUE(has_f2);

  // Shared header deduplicated; two main files remain.
  std::size_t box_h = 0;
  for (const pdbFile* f : pdb1.getFileVec()) box_h += f->name() == "box.h";
  EXPECT_EQ(box_h, 1u);
  EXPECT_EQ(pdb1.getFileVec().size(), 3u);
}

TEST(Ductape, MergeRewiresCallsAcrossUnits) {
  SourceManager sm1;
  DiagnosticEngine diags1;
  sm1.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe1(sm1, diags1);
  auto r1 = fe1.compileSource(
      "tu1.cpp", "#include \"box.h\"\nvoid f1() { Box<int> b; b.put(1); }\n");
  PDB merged = PDB::fromPdbFile(ilanalyzer::analyze(r1, sm1));

  SourceManager sm2;
  DiagnosticEngine diags2;
  sm2.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe2(sm2, diags2);
  auto r2 = fe2.compileSource(
      "tu2.cpp", "#include \"box.h\"\nvoid f2() { Box<int> b; b.put(2); }\n");
  PDB other = PDB::fromPdbFile(ilanalyzer::analyze(r2, sm2));

  merged.merge(other);
  // f2's call to Box<int>::put must target the single merged routine.
  const pdbRoutine* f2 = nullptr;
  const pdbRoutine* put = nullptr;
  std::size_t put_count = 0;
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    if (r->name() == "f2") f2 = r;
    if (r->name() == "put") {
      put = r;
      ++put_count;
    }
  }
  ASSERT_NE(f2, nullptr);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put_count, 1u);  // duplicate member instantiation merged away
  bool f2_calls_put = false;
  for (const pdbCall* call : f2->callees()) f2_calls_put |= call->call() == put;
  EXPECT_TRUE(f2_calls_put);
}

TEST(Ductape, MergeIsIdempotent) {
  PDB a = compileToPdb("a.cpp", kStackSource);
  PDB b = compileToPdb("a.cpp", kStackSource);
  const std::size_t before = a.getItemVec().size();
  a.merge(b);
  EXPECT_EQ(a.getItemVec().size(), before);
}

TEST(Ductape, MergePreservesDisjointContent) {
  PDB a = compileToPdb("a.cpp", "int alpha() { return 1; }\n");
  PDB b = compileToPdb("b.cpp", "int beta() { return 2; }\n");
  a.merge(b);
  bool has_alpha = false, has_beta = false;
  for (const pdbRoutine* r : a.getRoutineVec()) {
    has_alpha |= r->name() == "alpha";
    has_beta |= r->name() == "beta";
  }
  EXPECT_TRUE(has_alpha);
  EXPECT_TRUE(has_beta);
  EXPECT_EQ(a.getFileVec().size(), 2u);
}

}  // namespace
}  // namespace pdt::ductape

namespace pdt::ductape {
namespace {

TEST(Ductape, EnumConstantsExposed) {
  PDB pdb = compileToPdb("e.cpp",
                         "enum Mode { OFF, SLOW = 5, FAST };\nMode m = SLOW;\n");
  const pdbType* mode = nullptr;
  for (const pdbType* t : pdb.getTypeVec()) {
    if (t->kind() == pdbType::TY_ENUM) mode = t;
  }
  ASSERT_NE(mode, nullptr);
  ASSERT_EQ(mode->enumConstants().size(), 3u);
  EXPECT_EQ(mode->enumConstants()[0].first, "OFF");
  EXPECT_EQ(mode->enumConstants()[0].second, 0);
  EXPECT_EQ(mode->enumConstants()[1].second, 5);
  EXPECT_EQ(mode->enumConstants()[2].second, 6);
}

TEST(Ductape, EnumConstantsSurviveAsciiRoundTrip) {
  PDB pdb = compileToPdb("e.cpp", "enum Tag { A = 2, B };\nTag t = A;\n");
  std::ostringstream os;
  pdb.write(os);
  EXPECT_NE(os.str().find("yenum A 2"), std::string::npos);
  EXPECT_NE(os.str().find("yenum B 3"), std::string::npos);
}

}  // namespace
}  // namespace pdt::ductape

namespace pdt::ductape {
namespace {

// Satellite of the pdbcheck work: the whole-program call graph a merged
// database exposes. A call into a routine that is only declared in the
// calling TU must, after merging with the defining TU, resolve to the
// defined routine with symmetric callees()/callers() edges, and repeated
// merges of the same inputs must serialize to identical bytes.
TEST(Ductape, CrossTuCallEdgesAreSymmetricAndStable) {
  const auto build = [] {
    PDB a = compileToPdb(
        "caller.cpp", "int work(int v);\nint driver() { return work(3); }\n");
    PDB b = compileToPdb("callee.cpp", "int work(int v) { return v + 1; }\n");
    a.merge(b);
    return a;
  };
  PDB merged = build();

  const pdbRoutine* driver = nullptr;
  const pdbRoutine* work = nullptr;
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    if (r->name() == "driver") driver = r;
    if (r->name() == "work") work = r;
  }
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(work, nullptr);
  // The declaration-only 'work' from caller.cpp and the definition from
  // callee.cpp merged into one defined routine.
  EXPECT_TRUE(work->isDefined());

  bool forward = false;
  for (const pdbCall* c : driver->callees()) forward |= c->call() == work;
  EXPECT_TRUE(forward) << "driver -> work edge lost by merge";
  bool backward = false;
  for (const pdbCall* c : work->callers()) backward |= c->call() == driver;
  EXPECT_TRUE(backward) << "work's callers do not record driver";

  // Every callee edge in the merged database has its inverse.
  for (const pdbRoutine* r : merged.getRoutineVec()) {
    for (const pdbCall* c : r->callees()) {
      bool has_inverse = false;
      for (const pdbCall* back : c->call()->callers())
        has_inverse |= back->call() == r;
      EXPECT_TRUE(has_inverse) << r->fullName() << " -> "
                               << c->call()->fullName();
    }
  }

  // Stability: rebuilding from the same inputs gives the same bytes.
  EXPECT_EQ(pdb::writeToString(merged.raw()), pdb::writeToString(build().raw()));
}

TEST(Ductape, MergeUnionsNamespaceMembers) {
  PDB a = compileToPdb("a.cpp", "namespace util { void from_a() {} }\n");
  PDB b = compileToPdb("b.cpp", "namespace util { void from_b() {} }\n");
  a.merge(b);
  ASSERT_EQ(a.getNamespaceVec().size(), 1u);
  const pdbNamespace* util = a.getNamespaceVec()[0];
  std::size_t members = 0;
  bool has_a = false, has_b = false;
  for (const pdbItem* m : util->members()) {
    ++members;
    has_a |= m->name() == "from_a";
    has_b |= m->name() == "from_b";
  }
  EXPECT_EQ(members, 2u);
  EXPECT_TRUE(has_a);
  EXPECT_TRUE(has_b);
}

// ---- Folds of several units: the merge state (keys, namespace member
// sets, dp index, du routines) carries from one step to the next.

/// Unit `index` of a fold over box.h: each reopens namespace util, uses
/// Box<int>, and carries one dp row "put() <Box<int>>" with `index`
/// calls. shared() is declared in unit 1 and defined in unit 3.
pdb::PdbFile foldUnit(int index) {
  const std::string n = std::to_string(index);
  std::string source = "#include \"box.h\"\nvoid shared();\nvoid helper" + n +
                       "() {}\nnamespace util { void from" + n +
                       "() {} }\nvoid use" + n +
                       "() { Box<int> b; b.put(" + n + "); }\n";
  if (index == 1) source += "void caller() { shared(); }\n";
  if (index == 3) source += "void shared() { int k = 3; helper3(); k = k + 1; }\n";
  SourceManager sm;
  DiagnosticEngine diags;
  sm.addVirtualFile("box.h", kLibHeader);
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource("tu" + n + ".cpp", source);
  EXPECT_TRUE(result.success);
  pdb::PdbFile raw = ilanalyzer::analyze(result, sm);
  pdb::DynProfItem dp;
  dp.name = "put() <Box<int>>";
  dp.calls = static_cast<std::uint64_t>(index);
  for (const auto& r : raw.routines())
    if (r.name == "put") dp.routine = r.id;
  raw.addDynProf(std::move(dp));
  return raw;
}

const pdbRoutine* routineNamed(const PDB& pdb, std::string_view name) {
  for (const pdbRoutine* r : pdb.getRoutineVec())
    if (r->name() == name) return r;
  return nullptr;
}

TEST(Ductape, FoldCarriesMergeStateAcrossSteps) {
  std::vector<pdb::PdbFile> units;
  for (int i = 1; i <= 4; ++i) units.push_back(foldUnit(i));
  // Make the later units' put() streams distinguishable from the first.
  std::size_t first_put_events = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    std::uint32_t put = 0;
    for (const auto& r : units[u].routines())
      if (r.name == "put") put = r.id;
    for (auto& d : units[u].defUses()) {
      if (d.routine != put) continue;
      ASSERT_FALSE(d.events.empty());
      if (u == 0) first_put_events = d.events.size();
      else d.events.pop_back();
    }
  }
  ASSERT_GT(first_put_events, 0u);

  PDB merged = PDB::fromPdbFile(units[0]);
  for (std::size_t u = 1; u < units.size(); ++u)
    merged.merge(PDB::fromPdbFile(units[u]));

  // Declared in unit 1, defined in unit 3: the definition's location,
  // extent and calls win.
  const pdbRoutine* shared = routineNamed(merged, "shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_TRUE(shared->isDefined());
  ASSERT_TRUE(shared->location().valid());
  EXPECT_EQ(shared->location().file()->name(), "tu3.cpp");
  ASSERT_TRUE(shared->bodyBegin().valid());
  EXPECT_EQ(shared->bodyBegin().file()->name(), "tu3.cpp");
  ASSERT_EQ(shared->callees().size(), 1u);
  EXPECT_EQ(shared->callees()[0]->call()->name(), "helper3");
  const pdbRoutine* caller = routineNamed(merged, "caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->callees().size(), 1u);
  EXPECT_EQ(caller->callees()[0]->call(), shared);

  // util, reopened in every unit, holds every unit's member once.
  ASSERT_EQ(merged.getNamespaceVec().size(), 1u);
  std::vector<std::string> members;
  for (const pdbItem* m : merged.getNamespaceVec()[0]->members())
    members.push_back(m->name());
  EXPECT_EQ(members, (std::vector<std::string>{"from1", "from2", "from3",
                                               "from4"}));

  // Box<int>, instantiated in every unit, appears once.
  std::size_t boxes = 0;
  for (const pdbClass* c : merged.getClassVec()) boxes += c->name() == "Box<int>";
  EXPECT_EQ(boxes, 1u);

  // The dp rows sum: 1 + 2 + 3 + 4 calls, linked to the one put().
  const pdbRoutine* put = routineNamed(merged, "put");
  ASSERT_NE(put, nullptr);
  ASSERT_EQ(merged.raw().dynProfs().size(), 1u);
  EXPECT_EQ(merged.raw().dynProfs()[0].calls, 10u);
  EXPECT_EQ(merged.raw().dynProfs()[0].routine,
            static_cast<std::uint32_t>(put->id()));

  // One du stream per routine; put()'s is the first unit's, shared()'s
  // comes from unit 3, where it is defined.
  std::size_t put_streams = 0, shared_streams = 0;
  for (const auto& d : merged.raw().defUses()) {
    if (d.routine == static_cast<std::uint32_t>(put->id())) {
      ++put_streams;
      EXPECT_EQ(d.events.size(), first_put_events);
    }
    shared_streams += d.routine == static_cast<std::uint32_t>(shared->id());
  }
  EXPECT_EQ(put_streams, 1u);
  EXPECT_EQ(shared_streams, 1u);
}

TEST(Ductape, FoldReopenedFromBinaryHalfwayIsByteIdentical) {
  std::vector<pdb::PdbFile> units;
  for (int i = 1; i <= 4; ++i) units.push_back(foldUnit(i));

  PDB unbroken = PDB::fromPdbFile(units[0]);
  for (std::size_t u = 1; u < units.size(); ++u)
    unbroken.merge(PDB::fromPdbFile(units[u]));

  // Same fold, but the accumulator is written to binary after two units
  // and the rest is folded into the database read back from it.
  PDB first_half = PDB::fromPdbFile(units[0]);
  first_half.merge(PDB::fromPdbFile(units[1]));
  const std::string spilled =
      pdb::writeString(first_half.raw(), pdb::Format::Binary);
  auto reread = pdb::readBuffer(spilled);
  ASSERT_TRUE(reread.ok());
  PDB reopened = PDB::fromPdbFile(std::move(reread.pdb));
  for (std::size_t u = 2; u < units.size(); ++u)
    reopened.merge(PDB::fromPdbFile(units[u]));

  EXPECT_EQ(pdb::writeToString(reopened.raw()),
            pdb::writeToString(unbroken.raw()));
}

}  // namespace
}  // namespace pdt::ductape
