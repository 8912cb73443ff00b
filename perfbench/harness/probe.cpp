// perfbench probe: the benchmark's native helper.
//
//   probe kernel                    reference kernel server: one run per
//                                   stdin line, prints its time in ns
//   probe spawn RESULT CMD...       runs CMD, writes "<wall ns> <peak RSS KiB>"
//                                   to RESULT and exits with CMD's status
//   probe load SOCKET CONNS REQS OUT [SWAP_DB SWAP_AFTER]
//                                   closed-loop pdbd load generator
//   probe layers-build OUT.json -I DIR... -- TU...
//   probe layers-check OUT.json DB
//   probe layers-query OUT.json DB REQS
//   probe layers-tauprof OUT.json DB PROFILE...
//                                   per-layer timings of the public entry
//                                   points, called in-process
//
// All layer timings are wall nanoseconds around one call into a library
// entry point, measured from outside the program's own code.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/checker.h"
#include "analysis/context.h"
#include "ductape/ductape.h"
#include "frontend/frontend.h"
#include "ilanalyzer/analyzer.h"
#include "lex/lexer.h"
#include "pdb/snapshot.h"
#include "pdbd/proto.h"
#include "pdbd/service.h"
#include "query/index.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "tau/profile_merge.h"

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

template <class F>
std::int64_t timed(F&& f) {
  const std::int64_t t0 = nowNs();
  f();
  return nowNs() - t0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --------------------------------------------------------------------------
// Reference kernel: fixed hashing, string and sorting work with the memory
// behaviour of a compiler front end. Its run time tracks the host's current
// speed; run.py divides program times by it.

std::uint64_t referenceKernel() {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (int i = 0; i < 120000; ++i) table[next() % 40000] += i;
  std::vector<std::string> words;
  words.reserve(30000);
  for (int i = 0; i < 30000; ++i) words.push_back("w" + std::to_string(next() % 1000003));
  std::sort(words.begin(), words.end());
  std::uint64_t sum = table.size();
  for (const auto& w : words) sum = sum * 31 + static_cast<unsigned char>(w.back());
  return sum;
}

int kernelServer() {
  std::string line;
  std::uint64_t sink = 0;
  while (std::getline(std::cin, line)) {
    const std::int64_t ns = timed([&] { sink += referenceKernel(); });
    std::cout << ns << ' ' << (sink & 1) << std::endl;
  }
  return 0;
}

// --------------------------------------------------------------------------
// Child runner. Peak RSS comes from wait4 on a child forked from this small
// process: a child forked from the Python driver would report the driver's
// own resident set as its peak.

int spawn(int argc, char** argv) {
  if (argc < 4) return 2;
  const std::int64_t t0 = nowNs();
  const pid_t pid = ::fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    ::execvp(argv[3], argv + 3);
    ::_exit(127);
  }
  int status = 0;
  rusage ru{};
  ::wait4(pid, &status, 0, &ru);
  const std::int64_t wall = nowNs() - t0;
  std::ofstream(argv[2]) << wall << ' ' << ru.ru_maxrss << '\n';
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

// --------------------------------------------------------------------------
// Load generator

int connectTo(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class LineConn {
 public:
  explicit LineConn(int fd) : fd_(fd) {}
  ~LineConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool send(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool recv(std::string& out) {
    out.clear();
    for (;;) {
      const auto nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        out.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        if (pos_ == buf_.size()) {
          buf_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

struct Request {
  std::string kind, verb, arg, line;
};

std::vector<Request> readRequests(const std::string& path) {
  std::vector<Request> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    Request r;
    std::istringstream ss(line);
    std::getline(ss, r.kind, '\t');
    std::getline(ss, r.verb, '\t');
    std::getline(ss, r.arg, '\t');
    std::getline(ss, r.line);
    r.line += '\n';
    out.push_back(std::move(r));
  }
  return out;
}

struct Reply {
  bool ok = false;
  long long gen = -1;
  int gen_fields = 0;
  bool found = false;
};

Reply parseReply(const std::string& line) {
  Reply r;
  r.ok = line.find("\"ok\": true") != std::string::npos;
  std::size_t at = 0;
  const std::string key = "\"generation\": ";
  while ((at = line.find(key, at)) != std::string::npos) {
    ++r.gen_fields;
    at += key.size();
    r.gen = std::atoll(line.c_str() + at);
  }
  // A lookup that matches nothing answers "no match for '<name>'".
  const auto text = line.find("\"text\": \"");
  r.found = text != std::string::npos && line.compare(text + 9, 1, "\"") != 0 &&
            line.compare(text + 9, 12, "no match for") != 0;
  return r;
}

int load(int argc, char** argv) {
  if (argc < 6) return 2;
  const std::string socket = argv[2];
  const int conns = std::atoi(argv[3]);
  const auto reqs = readRequests(argv[4]);
  const std::string out_path = argv[5];
  const std::string swap_db = argc > 6 ? argv[6] : "";
  const std::size_t swap_after = argc > 7 ? std::strtoull(argv[7], nullptr, 10) : 0;

  struct Rec {
    int conn;
    std::size_t idx;
    std::int64_t ns;
    Reply reply;
  };
  std::vector<std::vector<Rec>> recs(conns);
  std::vector<std::int64_t> client_ns(conns, 0);
  std::atomic<std::size_t> next{0}, done{0};
  std::atomic<bool> failed{false};
  std::vector<std::unique_ptr<LineConn>> links;
  for (int c = 0; c < conns; ++c) {
    const int fd = connectTo(socket);
    if (fd < 0) {
      std::cerr << "probe load: cannot connect to " << socket << '\n';
      return 3;
    }
    links.push_back(std::make_unique<LineConn>(fd));
  }
  std::unique_ptr<LineConn> swap_link;
  if (!swap_db.empty()) {
    const int fd = connectTo(socket);
    if (fd < 0) return 3;
    swap_link = std::make_unique<LineConn>(fd);
  }

  std::int64_t swap_ns = -1;
  Reply swap_reply;
  const std::int64_t start = nowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::string line;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reqs.size()) return;
        const std::int64_t t0 = nowNs();
        if (!links[c]->send(reqs[i].line)) break;
        const std::int64_t t1 = nowNs();
        if (!links[c]->recv(line)) break;
        const std::int64_t t2 = nowNs();
        Rec rec{c, i, t2 - t0, parseReply(line)};
        recs[c].push_back(rec);
        client_ns[c] += (t1 - t0) + (nowNs() - t2);
        done.fetch_add(1);
      }
      failed.store(true);
    });
  }
  if (swap_link) {
    while (done.load() < swap_after && !failed.load()) std::this_thread::yield();
    std::string line;
    const std::int64_t t0 = nowNs();
    const bool ok = swap_link->send("{\"q\": \"swap\", \"db\": \"" + swap_db + "\"}\n") &&
                    swap_link->recv(line);
    swap_ns = nowNs() - t0;
    if (ok) swap_reply = parseReply(line);
  }
  for (auto& t : threads) t.join();
  const std::int64_t wall = nowNs() - start;

  std::ofstream out(out_path);
  std::int64_t total_client = 0;
  std::size_t n = 0;
  for (int c = 0; c < conns; ++c) {
    total_client += client_ns[c];
    for (const Rec& r : recs[c]) {
      const Request& q = reqs[r.idx];
      out << r.conn << '\t' << r.idx << '\t' << q.kind << '\t' << q.verb << '\t' << q.arg
          << '\t' << r.ns << '\t' << r.reply.ok << '\t' << r.reply.gen << '\t'
          << r.reply.gen_fields << '\t' << r.reply.found << '\n';
      ++n;
    }
  }
  std::cout << "{\"wall_ns\": " << wall << ", \"answered\": " << n
            << ", \"requests\": " << reqs.size()
            << ", \"client_ns_per_req\": " << (n ? total_client / static_cast<std::int64_t>(n) : 0)
            << ", \"swap_ns\": " << swap_ns << ", \"swap_ok\": " << (swap_reply.ok ? 1 : 0)
            << ", \"swap_gen\": " << swap_reply.gen << "}\n";
  return n == reqs.size() ? 0 : 1;
}

// --------------------------------------------------------------------------
// Per-layer probes

using Metrics = std::map<std::string, double>;

void writeMetrics(const std::string& path, const Metrics& m) {
  std::ofstream out(path);
  out << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  out << "}\n";
}

int layersBuild(int argc, char** argv) {
  const std::string out = argv[2];
  pdt::frontend::FrontendOptions options;
  std::vector<std::string> tus;
  bool files = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (files) {
      tus.push_back(a);
    } else if (a == "--") {
      files = true;
    } else if (a == "-I" && i + 1 < argc) {
      options.include_dirs.push_back(argv[++i]);
    }
  }
  Metrics m;
  // Lexer: batch-lex every TU's own text.
  double lex_ns = 0, tokens = 0;
  {
    pdt::SourceManager sm;
    pdt::DiagnosticEngine diags;
    for (const auto& tu : tus) {
      const auto id = sm.loadFile(tu);
      if (!id) return 1;
      std::vector<pdt::lex::Token> toks;
      lex_ns += timed([&] {
        pdt::lex::RawLexer lexer(*id, sm.content(*id), diags);
        lexer.lexAll(toks);
      });
      tokens += static_cast<double>(toks.size());
    }
  }
  // Front end + IL analyzer per TU. Merge and write are the program's own
  // `ductape.merge` and `pdb.write` trace spans, read by run.py.
  double compile_ns = 0, analyze_ns = 0;
  for (const auto& tu : tus) {
    pdt::SourceManager sm;
    pdt::DiagnosticEngine diags;
    pdt::frontend::Frontend frontend(sm, diags, options);
    pdt::frontend::CompileResult result;
    compile_ns += timed([&] { result = frontend.compileFile(tu); });
    if (!result.success) return 1;
    pdt::pdb::PdbFile unit;
    analyze_ns += timed([&] { unit = pdt::ilanalyzer::analyze(result, sm); });
  }
  m["lex.tokens_per_s"] = lex_ns > 0 ? tokens / (lex_ns / 1e9) : 0;
  m["frontend.compile_ms"] = compile_ns / 1e6;
  m["ilanalyzer.analyze_ms"] = analyze_ns / 1e6;
  writeMetrics(out, m);
  return 0;
}

int layersCheck(int argc, char** argv) {
  if (argc < 4) return 2;
  Metrics m;
  pdt::pdb::OpenResult opened;
  m["pdb.open_ms"] = timed([&] { opened = pdt::pdb::open(argv[3]); }) / 1e6;
  if (!opened.ok()) return 1;
  const auto pdb = pdt::ductape::PDB::fromSnapshot(opened.snapshot);
  std::optional<pdt::analysis::AnalysisContext> ctx;
  m["analysis.context_ms"] =
      timed([&] { ctx.emplace(pdt::analysis::AnalysisContext::build(pdb)); }) / 1e6;
  pdt::analysis::CheckResult result;
  m["analysis.rules_ms"] =
      timed([&] { result = pdt::analysis::runChecks(*ctx, pdt::analysis::CheckOptions{}); }) /
      1e6;
  m["analysis.findings"] = static_cast<double>(result.diags.size());
  writeMetrics(argv[2], m);
  return 0;
}

int layersQuery(int argc, char** argv) {
  if (argc < 5) return 2;
  Metrics m;
  {
    pdt::pdb::OpenResult opened = pdt::pdb::open(argv[3]);
    if (!opened.ok()) return 1;
    pdt::query::Index index(opened.snapshot);
    m["query.prewarm_ms"] = timed([&] { index.prewarm(); }) / 1e6;
  }
  pdt::pdbd::Service service;
  std::string error;
  if (!service.load(argv[3], error)) return 1;
  std::vector<double> point_ns, report_ns;
  for (const Request& r : readRequests(argv[4])) {
    pdt::pdbd::Message msg;
    if (!pdt::pdbd::parseMessage(r.line.substr(0, r.line.size() - 1), msg, error)) return 1;
    std::string reply;
    const double ns = static_cast<double>(timed([&] { reply = service.handle(msg); }));
    (r.kind == "point" ? point_ns : report_ns).push_back(ns);
  }
  m["query.handle_point_us"] = median(point_ns) / 1e3;
  m["query.handle_report_ms"] = median(report_ns) / 1e6;
  writeMetrics(argv[2], m);
  return 0;
}

int layersTauprof(int argc, char** argv) {
  if (argc < 5) return 2;
  Metrics m;
  std::vector<pdt::tau::ThreadProfile> profiles;
  pdt::tau::MergedProfile merged;
  const double merge_ns = static_cast<double>(timed([&] {
    for (int i = 4; i < argc; ++i) {
      auto p = pdt::tau::readThreadProfile(argv[i]);
      if (p) profiles.push_back(std::move(*p));
    }
    merged = pdt::tau::mergeThreadProfiles(profiles);
  }));
  pdt::pdb::OpenResult opened = pdt::pdb::open(argv[3]);
  if (!opened.ok()) return 1;
  pdt::pdb::PdbFile pdb = opened.snapshot->pdb();
  const double attach_ns =
      static_cast<double>(timed([&] { pdt::tau::attachDynProfSection(merged, pdb); }));
  m["tauprof.files"] = static_cast<double>(profiles.size());
  m["tauprof.rows"] = static_cast<double>(merged.entries.size());
  m["tauprof.merge_ms"] = merge_ns / 1e6;
  m["tauprof.attach_ms"] = attach_ns / 1e6;
  writeMetrics(argv[2], m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: probe kernel|spawn|load|layers-build|layers-check|layers-query|"
                 "layers-tauprof ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "kernel") return kernelServer();
  if (cmd == "load") return load(argc, argv);
  if (cmd == "spawn") return spawn(argc, argv);
  if (argc < 3) return 2;
  if (cmd == "layers-build") return layersBuild(argc, argv);
  if (cmd == "layers-check") return layersCheck(argc, argv);
  if (cmd == "layers-query") return layersQuery(argc, argv);
  if (cmd == "layers-tauprof") return layersTauprof(argc, argv);
  std::cerr << "probe: unknown command '" << cmd << "'\n";
  return 2;
}
