#include "tau/profile_merge.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <unordered_map>
#include <utility>

#include "tau_profile_format.h"

namespace pdt::tau {

namespace {

/// Bounds-checked little-endian cursor over a slurped profile file.
class Cursor {
 public:
  Cursor(const std::string& data, std::size_t limit) : data_(data), limit_(limit) {}

  bool u32(std::uint32_t& out) {
    if (pos_ + 4 > limit_) return false;
    out = 0;
    for (int i = 3; i >= 0; --i)
      out = (out << 8) | static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (pos_ + 8 > limit_) return false;
    out = 0;
    for (int i = 7; i >= 0; --i)
      out = (out << 8) | static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]);
    pos_ += 8;
    return true;
  }

  bool str(std::string& out) {
    std::uint32_t len = 0;
    if (!u32(len)) return false;
    if (pos_ + len > limit_) return false;
    out.assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  const std::string& data_;
  std::size_t limit_;
  std::size_t pos_ = 0;
};

std::optional<ThreadProfile> fail(std::string* error, const std::string& path,
                                  const std::string& what) {
  if (error != nullptr) *error = path + ": " + what;
  return std::nullopt;
}

/// The routine-name key used to match a TAU display name against PDB ro
/// items: text before the parameter list, last whitespace-separated token
/// (the instrumentor may splice a full signature, "void push(T)"). The
/// parentheses of "operator()" belong to the name, not the parameter list.
std::string routineKey(const std::string& name) {
  const std::size_t call_op = name.find("operator()");
  const std::size_t params =
      name.find('(', call_op == std::string::npos ? 0 : call_op + 10);
  std::string base = name.substr(0, params);
  while (!base.empty() && base.back() == ' ') base.pop_back();
  const auto space = base.rfind(' ');
  if (space != std::string::npos) base.erase(0, space + 1);
  return base;
}

void csvField(std::ostream& os, const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    os << text;
    return;
  }
  os << '"';
  for (const char c : text) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

}  // namespace

std::optional<ThreadProfile> readThreadProfile(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, path, "cannot open");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (data.size() < ::tau::profilefmt::kHeaderSize + 8)
    return fail(error, path, "truncated (not a TAU profile file)");
  for (std::size_t i = 0; i < 8; ++i) {
    if (static_cast<unsigned char>(data[i]) != ::tau::profilefmt::kMagic[i])
      return fail(error, path, "bad magic (not a TAU profile file)");
  }

  const std::size_t body = data.size() - 8;
  std::uint64_t stored = 0;
  for (int i = 7; i >= 0; --i)
    stored = (stored << 8) |
             static_cast<unsigned char>(data[body + static_cast<std::size_t>(i)]);
  if (::tau::profilefmt::checksum(data.data(), body) != stored)
    return fail(error, path, "checksum mismatch (file corrupt or truncated)");

  Cursor cur(data, body);
  ThreadProfile profile;
  std::uint32_t version = 0;
  std::uint64_t records = 0;
  // Skip the magic, then the fixed header fields.
  std::uint32_t magic_lo = 0, magic_hi = 0;
  if (!cur.u32(magic_lo) || !cur.u32(magic_hi)) return fail(error, path, "truncated header");
  if (!cur.u32(version) || !cur.u32(profile.node) || !cur.u32(profile.context) ||
      !cur.u32(profile.thread) || !cur.u64(records))
    return fail(error, path, "truncated header");
  if (version != ::tau::profilefmt::kVersion)
    return fail(error, path,
                "unsupported version " + std::to_string(version) + " (expected " +
                    std::to_string(::tau::profilefmt::kVersion) + ")");

  profile.records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(records, data.size() / ::tau::profilefmt::kRecordFixedSize)));
  for (std::uint64_t r = 0; r < records; ++r) {
    ThreadProfileRecord rec;
    if (!cur.str(rec.name) || !cur.str(rec.type) || !cur.u32(rec.group) ||
        !cur.u64(rec.calls) || !cur.u64(rec.child_calls) ||
        !cur.u64(rec.inclusive_ns) || !cur.u64(rec.exclusive_ns))
      return fail(error, path,
                  "truncated record " + std::to_string(r + 1) + " of " +
                      std::to_string(records));
    profile.records.push_back(std::move(rec));
  }
  if (cur.pos() != body)
    return fail(error, path, "trailing bytes after last record");
  return profile;
}

std::string MergedEntry::displayName() const {
  if (type.empty()) return name;
  return name + " <" + type + ">";
}

const MergedEntry* MergedProfile::find(const std::string& name_substring) const {
  for (const MergedEntry& e : entries) {
    if (e.displayName().find(name_substring) != std::string::npos) return &e;
  }
  return nullptr;
}

std::uint64_t MergedProfile::totalExclusiveNs() const {
  std::uint64_t total = 0;
  for (const MergedEntry& e : entries) total += e.exclusive_ns;
  return total;
}

MergedProfile mergeThreadProfiles(const std::vector<ThreadProfile>& inputs) {
  struct Accum {
    MergedEntry entry;
    std::set<std::uint64_t> contexts;  // (node << 32 | context) pairs
  };
  // Keyed by name + '\x1f' + type; the final sort makes iteration order
  // irrelevant, and every accumulation is a commutative sum, so input
  // order cannot leak into the result.
  std::unordered_map<std::string, Accum> by_key;
  std::set<std::uint64_t> all_contexts;

  for (const ThreadProfile& tp : inputs) {
    const std::uint64_t ctx_key =
        (static_cast<std::uint64_t>(tp.node) << 32) | tp.context;
    all_contexts.insert(ctx_key);
    for (const ThreadProfileRecord& rec : tp.records) {
      Accum& acc = by_key[rec.name + '\x1f' + rec.type];
      MergedEntry& e = acc.entry;
      if (e.threads == 0) {
        e.name = rec.name;
        e.type = rec.type;
        e.group = rec.group;
      }
      e.calls += rec.calls;
      e.child_calls += rec.child_calls;
      e.inclusive_ns += rec.inclusive_ns;
      e.exclusive_ns += rec.exclusive_ns;
      e.threads += 1;
      acc.contexts.insert(ctx_key);
    }
  }

  MergedProfile merged;
  merged.thread_files = static_cast<std::uint32_t>(inputs.size());
  merged.context_count = static_cast<std::uint32_t>(all_contexts.size());
  merged.entries.reserve(by_key.size());
  for (auto& [key, acc] : by_key) {
    acc.entry.contexts = static_cast<std::uint32_t>(acc.contexts.size());
    merged.entries.push_back(std::move(acc.entry));
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const MergedEntry& a, const MergedEntry& b) {
              if (a.exclusive_ns != b.exclusive_ns)
                return a.exclusive_ns > b.exclusive_ns;
              if (a.name != b.name) return a.name < b.name;
              return a.type < b.type;
            });
  return merged;
}

void renderMergedProfile(const MergedProfile& merged, std::ostream& os) {
  os << "# tauprof: " << merged.thread_files << " thread profile"
     << (merged.thread_files == 1 ? "" : "s") << ", " << merged.context_count
     << " context" << (merged.context_count == 1 ? "" : "s") << '\n';
  os << "------------------------------------------------------------------------------------------------\n";
  os << "%Time    Exclusive    Inclusive       #Call      #Subrs  Thr  Ctx  Inclusive Name\n";
  os << "              msec         msec                                    usec/call\n";
  os << "------------------------------------------------------------------------------------------------\n";
  const std::uint64_t total_excl = merged.totalExclusiveNs();
  for (const MergedEntry& e : merged.entries) {
    const double pct =
        total_excl == 0 ? 0.0
                        : 100.0 * static_cast<double>(e.exclusive_ns) /
                              static_cast<double>(total_excl);
    const double excl_ms = static_cast<double>(e.exclusive_ns) / 1e6;
    const double incl_ms = static_cast<double>(e.inclusive_ns) / 1e6;
    const double usec_per_call =
        e.calls == 0 ? 0.0
                     : static_cast<double>(e.inclusive_ns) / 1e3 /
                           static_cast<double>(e.calls);
    os << std::fixed << std::setprecision(1) << std::setw(5) << pct << ' '
       << std::setw(12) << excl_ms << ' ' << std::setw(12) << incl_ms << ' '
       << std::setw(11) << e.calls << ' ' << std::setw(11) << e.child_calls
       << ' ' << std::setw(4) << e.threads << ' ' << std::setw(4) << e.contexts
       << ' ' << std::setw(10) << std::setprecision(0) << usec_per_call << "  "
       << e.displayName() << '\n';
  }
  os << "------------------------------------------------------------------------------------------------\n";
}

void renderMergedCsv(const MergedProfile& merged, std::ostream& os) {
  os << "name,type,group,calls,child_calls,inclusive_ns,exclusive_ns,threads,contexts\n";
  for (const MergedEntry& e : merged.entries) {
    csvField(os, e.name);
    os << ',';
    csvField(os, e.type);
    os << ',' << e.group << ',' << e.calls << ',' << e.child_calls << ','
       << e.inclusive_ns << ',' << e.exclusive_ns << ',' << e.threads << ','
       << e.contexts << '\n';
  }
}

std::size_t attachDynProfSection(const MergedProfile& merged,
                                 pdb::PdbFile& pdb) {
  // Routine name -> lowest ro id, so name collisions resolve the same way
  // on every run. Members are also keyed "Class::name": a row whose type
  // names the class links to that class's member first.
  std::unordered_map<std::string_view, std::uint32_t> by_name;
  std::unordered_map<std::string, std::uint32_t> by_member;
  const auto keepLowest = [](auto& map, auto key, std::uint32_t id) {
    const auto [it, inserted] = map.emplace(std::move(key), id);
    if (!inserted && id < it->second) it->second = id;
  };
  for (const pdb::RoutineItem& r : pdb.routines()) {
    keepLowest(by_name, r.name, r.id);
    if (!r.parent || r.parent->kind != pdb::ItemKind::Class) continue;
    if (const auto* cls = pdb.findClass(r.parent->id))
      keepLowest(by_member, std::string(cls->name) + "::" + std::string(r.name),
                 r.id);
  }

  std::size_t linked = 0;
  for (const MergedEntry& e : merged.entries) {
    pdb::DynProfItem item;
    item.name = pdb.own(e.displayName());
    item.calls = e.calls;
    item.child_calls = e.child_calls;
    item.inclusive_ns = e.inclusive_ns;
    item.exclusive_ns = e.exclusive_ns;
    item.threads = e.threads;
    item.contexts = e.contexts;
    const std::string key = routineKey(e.name);
    // Qualified entry ("Stack::push") against an unqualified ro name.
    const std::size_t sep = key.rfind("::");
    const std::string bare = sep == std::string::npos ? key : key.substr(sep + 2);
    if (!e.type.empty()) {
      if (const auto it = by_member.find(e.type + "::" + bare);
          it != by_member.end())
        item.routine = it->second;
    }
    if (item.routine == 0) {
      auto it = by_name.find(std::string_view(key));
      if (it == by_name.end()) it = by_name.find(std::string_view(bare));
      if (it != by_name.end()) item.routine = it->second;
    }
    if (item.routine != 0) ++linked;
    pdb.addDynProf(std::move(item));
  }
  return linked;
}

}  // namespace pdt::tau
