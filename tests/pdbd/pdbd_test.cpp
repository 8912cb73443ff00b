// pdbd unit tests: the flat JSON protocol round-trips and rejects what
// it must, the service answers every verb byte-identically to the
// one-shot tools, failed swaps keep the old generation serving, and the
// connection loop handles framing (multiple requests per read, requests
// split across reads, malformed lines) over a plain socketpair.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>

#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "pdb/writer.h"
#include "pdbd/proto.h"
#include "pdbd/server.h"
#include "pdbd/service.h"
#include "tools/tools.h"

namespace pdt::pdbd {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// proto
// ---------------------------------------------------------------------------

TEST(Proto, ParsesEveryValueKind) {
  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(
      R"({"q": "defuse", "line": 12, "neg": -3, "defs": true, )"
      R"("uses": false, "none": null})",
      m, error));
  EXPECT_EQ(m.str("q"), "defuse");
  EXPECT_EQ(m.num("line"), 12);
  EXPECT_EQ(m.num("neg"), -3);
  EXPECT_TRUE(m.flag("defs"));
  EXPECT_FALSE(m.flag("uses"));
  EXPECT_FALSE(m.has("none"));
  EXPECT_EQ(m.num("absent", 7), 7);
}

TEST(Proto, UnescapesStrings) {
  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(R"({"name": "a\"b\\c\ndA"})", m, error));
  EXPECT_EQ(m.str("name"), "a\"b\\c\ndA");
}

TEST(Proto, RejectsMalformedInput) {
  Message m;
  std::string error;
  EXPECT_FALSE(parseMessage("", m, error));
  EXPECT_FALSE(parseMessage("not json", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": "x")", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": {"nested": 1}})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": [1]})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": 1.5})", m, error));
  EXPECT_FALSE(parseMessage(R"({"q": "x"} trailing)", m, error));
  EXPECT_FALSE(error.empty());
}

TEST(Proto, WriterRoundTripsThroughTheParser) {
  MessageWriter w;
  w.field("q", std::string_view("lookup"));
  w.field("name", std::string_view("Stack<int>::push \"quoted\"\n"));
  w.field("generation", std::uint64_t{42});
  w.field("ok", true);
  const std::string line = w.finish();

  Message m;
  std::string error;
  ASSERT_TRUE(parseMessage(line, m, error)) << line;
  EXPECT_EQ(m.str("q"), "lookup");
  EXPECT_EQ(m.str("name"), "Stack<int>::push \"quoted\"\n");
  EXPECT_EQ(m.num("generation"), 42);
  EXPECT_TRUE(m.flag("ok"));
}

// ---------------------------------------------------------------------------
// service
// ---------------------------------------------------------------------------

constexpr const char* kAlpha = R"(
class Base {
public:
    virtual void act() {}
};
void leaf() {}
void driver(Base& b) {
    b.act();
    leaf();
}
)";

constexpr const char* kBeta = R"(
int helper(int a) {
    int t = a;
    t = a + 1;
    return t;
}
int entry() { return helper(2); }
)";

std::string compileToFile(const fs::path& path, const std::string& name,
                          const std::string& source) {
  SourceManager sm;
  DiagnosticEngine diags;
  frontend::Frontend fe(sm, diags);
  auto result = fe.compileSource(name, source);
  const std::string text = pdb::writeToString(ilanalyzer::analyze(result, sm));
  std::ofstream os(path, std::ios::binary);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  return path.string();
}

Message roundTrip(const std::string& response) {
  Message m;
  std::string error;
  EXPECT_TRUE(parseMessage(response, m, error)) << response;
  return m;
}

Message ask(Service& service, const std::string& request) {
  Message req;
  std::string error;
  EXPECT_TRUE(parseMessage(request, req, error)) << request;
  return roundTrip(service.handle(req));
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pdt_pdbd_" + std::to_string(::testing::UnitTest::GetInstance()
                                             ->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    alpha_ = compileToFile(dir_ / "alpha.pdb", "alpha.cpp", kAlpha);
    beta_ = compileToFile(dir_ / "beta.pdb", "beta.cpp", kBeta);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  std::string alpha_;
  std::string beta_;
};

TEST_F(ServiceTest, AnswersBeforeLoadWithNoDatabase) {
  Service service;
  const Message m = ask(service, R"({"q": "status"})");
  EXPECT_FALSE(m.flag("ok"));
  EXPECT_EQ(m.str("code"), "no-database");
}

TEST_F(ServiceTest, TreeVerbsMatchTheOneShotTool) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const ductape::PDB pdb = ductape::PDB::read(alpha_);
  ASSERT_TRUE(pdb.valid());

  const struct {
    const char* verb;
    tools::TreeKind kind;
  } verbs[] = {
      {"includes", tools::TreeKind::Includes},
      {"hierarchy", tools::TreeKind::ClassHierarchy},
      {"calltree", tools::TreeKind::CallGraph},
      {"profile", tools::TreeKind::Profile},
  };
  for (const auto& [verb, kind] : verbs) {
    const Message m =
        ask(service, std::string(R"({"q": ")") + verb + R"("})");
    ASSERT_TRUE(m.flag("ok")) << verb;
    std::ostringstream ref;
    tools::pdbtree(pdb, kind, ref);
    EXPECT_EQ(m.str("text"), ref.str()) << verb;
    EXPECT_EQ(m.num("generation"),
              static_cast<std::int64_t>(service.current()->id));
  }
}

TEST_F(ServiceTest, LookupAndDefuseAndCheckAnswer) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(beta_, error)) << error;

  const Message lookup = ask(service, R"({"q": "lookup", "name": "helper"})");
  ASSERT_TRUE(lookup.flag("ok"));
  EXPECT_NE(lookup.str("text").find("ro#"), std::string::npos);
  EXPECT_NE(lookup.str("text").find("helper"), std::string::npos);

  const Message du = ask(
      service, R"({"q": "defuse", "routine": "helper", "var": "t", )"
               R"("defs": true})");
  ASSERT_TRUE(du.flag("ok"));
  EXPECT_NE(du.str("text").find("use of 't'"), std::string::npos);

  const Message check = ask(service, R"({"q": "check"})");
  ASSERT_TRUE(check.flag("ok"));
  EXPECT_NE(check.str("text").find("check(s)"), std::string::npos);
}

TEST_F(ServiceTest, RejectsBadRequests) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  EXPECT_EQ(ask(service, R"({"name": "x"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "frobnicate"})").str("code"), "bad-verb");
  EXPECT_EQ(ask(service, R"({"q": "lookup"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "swap"})").str("code"), "bad-request");
  EXPECT_EQ(ask(service, R"({"q": "check", "format": "yaml"})").str("code"),
            "bad-request");
}

TEST_F(ServiceTest, SwapPublishesANewGenerationAndFailureKeepsTheOld) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::uint64_t first = service.current()->id;

  const Message swapped =
      ask(service, std::string(R"({"q": "swap", "db": ")") + beta_ + R"("})");
  ASSERT_TRUE(swapped.flag("ok"));
  EXPECT_GT(static_cast<std::uint64_t>(swapped.num("generation")), first);
  EXPECT_EQ(service.current()->db_path, beta_);

  // The new database answers; the calltree is beta's, not alpha's.
  const Message calls = ask(service, R"({"q": "calltree"})");
  EXPECT_NE(calls.str("text").find("entry"), std::string::npos);
  EXPECT_EQ(calls.str("text").find("driver"), std::string::npos);

  // A failed swap is reported and the current generation keeps serving.
  const std::uint64_t before = service.current()->id;
  const Message failed = ask(
      service,
      std::string(R"({"q": "swap", "db": ")") + (dir_ / "gone.pdb").string() +
          R"("})");
  EXPECT_FALSE(failed.flag("ok"));
  EXPECT_EQ(failed.str("code"), "open-failed");
  EXPECT_EQ(service.current()->id, before);
  EXPECT_EQ(service.current()->db_path, beta_);
}

TEST_F(ServiceTest, ShutdownRaisesTheFlag) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  EXPECT_FALSE(service.shutdownRequested());
  const Message m = ask(service, R"({"q": "shutdown"})");
  EXPECT_TRUE(m.flag("ok"));
  EXPECT_TRUE(service.shutdownRequested());
}

// ---------------------------------------------------------------------------
// connection loop (over a socketpair; no listener needed)
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, ConnectionLoopFramesRequestsAndAnswersInOrder) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::size_t served = 0;
  std::thread server([&] {
    served = serveConnection(fds[0], service);
    ::close(fds[0]);  // EOF for the client's read loop below
  });

  // Three requests: two in one write (testing multiple frames per read),
  // one malformed; then a request split across two writes.
  const std::string batch =
      R"({"q": "status"})" "\n" "this is not json\n";
  ASSERT_EQ(::send(fds[1], batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));
  const std::string split = R"({"q": "look)";
  const std::string rest = R"(up", "name": "leaf"})" "\n";
  ASSERT_EQ(::send(fds[1], split.data(), split.size(), 0),
            static_cast<ssize_t>(split.size()));
  ASSERT_EQ(::send(fds[1], rest.data(), rest.size(), 0),
            static_cast<ssize_t>(rest.size()));
  ::shutdown(fds[1], SHUT_WR);

  std::string responses;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[1], buf, sizeof buf, 0);
    if (n <= 0) break;
    responses.append(buf, static_cast<std::size_t>(n));
  }
  server.join();
  ::close(fds[1]);

  EXPECT_EQ(served, 3u);
  std::istringstream lines(responses);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(roundTrip(line).flag("ok"));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(roundTrip(line).str("code"), "parse-error");
  ASSERT_TRUE(std::getline(lines, line));
  const Message lookup = roundTrip(line);
  EXPECT_TRUE(lookup.flag("ok"));
  EXPECT_NE(lookup.str("text").find("leaf"), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line));
}

// ---------------------------------------------------------------------------
// listener (runServer over a real Unix socket)
// ---------------------------------------------------------------------------

int connectTo(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {  // until it listens
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends one request line and returns the one response line.
std::string request(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  EXPECT_EQ(::send(fd, framed.data(), framed.size(), 0),
            static_cast<ssize_t>(framed.size()));
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
  return reply;
}

TEST_F(ServiceTest, ShutdownDoesNotWaitForIdleConnections) {
  Service service;
  std::string error;
  ASSERT_TRUE(service.load(alpha_, error)) << error;
  const std::string socket_path = (dir_ / "pdbd.sock").string();
  std::promise<int> exit_code;
  std::future<int> returned = exit_code.get_future();
  std::ostringstream log;
  std::thread server(
      [&] { exit_code.set_value(runServer(service, socket_path, log)); });

  // One client asks once and then stays connected without a word; a
  // second asks for shutdown and stays connected too.
  const int idle = connectTo(socket_path);
  ASSERT_GE(idle, 0);
  EXPECT_TRUE(roundTrip(request(idle, R"({"q": "status"})")).flag("ok"));
  const int asker = connectTo(socket_path);
  ASSERT_GE(asker, 0);
  EXPECT_TRUE(roundTrip(request(asker, R"({"q": "shutdown"})")).flag("ok"));

  const bool drained =
      returned.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(drained) << "runServer waited on the open connections";
  if (drained) {
    // The daemon closed both connections: each client reads EOF.
    char byte = 0;
    EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);
    EXPECT_EQ(::recv(asker, &byte, 1, 0), 0);
  }
  ::close(idle);
  ::close(asker);
  server.join();
  EXPECT_EQ(returned.get(), 0);
  EXPECT_FALSE(fs::exists(socket_path));
}

}  // namespace
}  // namespace pdt::pdbd
