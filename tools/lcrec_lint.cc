// lcrec_lint: from-scratch repo lint for the invariants that a compiler
// will not enforce. Zero dependencies beyond the C++ standard library.
//
// Walks src/, tests/, and bench/ under --root and reports findings as
// "file:line: [rule] message" on stdout; exit code 1 when any finding
// survives. Rules (scopes in parentheses):
//
//   bare-assert            (src/)   assert() instead of LCREC_CHECK*.
//                                   static_assert is fine; so is the
//                                   check framework itself.
//   raw-stderr             (src/ minus src/obs/)  fprintf(stderr, ...)
//                                   or printf(...): library code must
//                                   route diagnostics through obs
//                                   logging. Bench/test binaries print
//                                   reports, so they are exempt.
//   std-rand               (all)    std::rand/srand: all randomness
//                                   goes through core::Rng so runs are
//                                   reproducible.
//   include-guard          (all .h) guard macro must be LCREC_<PATH>_H_
//                                   with the leading src/ dropped
//                                   (e.g. src/core/tensor.h ->
//                                   LCREC_CORE_TENSOR_H_).
//   using-namespace-header (all .h) `using namespace` in a header leaks
//                                   into every includer.
//   ckpt-bypass            (src/ minus src/ckpt/)  opening a
//                                   std::ofstream in binary mode: model
//                                   state must be written through the
//                                   atomic, checksummed lcrec::ckpt
//                                   writers (or core/serialize.cc, which
//                                   carries an explicit lint:allow), not
//                                   ad-hoc streams that can tear on
//                                   crash.
//   raw-thread             (src/ minus src/serve/, src/net/ and
//                                   src/obs/) spawning std::thread: all
//                                   concurrency lives in the serving
//                                   and networking layers (and obs test
//                                   scaffolding); the model/training
//                                   core stays single-threaded by
//                                   design.
//                                   std::thread::hardware_concurrency()
//                                   queries are exempt.
//   raw-socket             (all minus src/obs/socket.cc) calling
//                                   the POSIX socket API (socket/bind/
//                                   listen/accept/connect/poll/pipe):
//                                   all networking funnels through the
//                                   one audited socket layer,
//                                   obs::EventLoop and its client
//                                   helpers, which obs::HttpServer and
//                                   net::RpcServer/RpcChannel build on.
//   metric-name            (src/)   a string-literal metric name passed
//                                   to GetCounter/GetGauge/GetHistogram
//                                   must match lcrec\.[a-z0-9_.]+ so the
//                                   exported namespace stays uniform
//                                   (tests/bench may use scratch names;
//                                   non-literal names are not checked).
//   chaos-site             (src/)   getenv of an LCREC_CHAOS* variable
//                                   outside src/serve/chaos.*: the env
//                                   contract (grammar, seeding, lazy
//                                   parse) has exactly one owner, the
//                                   chaos injector; everything else
//                                   consults serve::chaos hooks.
//   raw-sync               (src/ minus src/obs/sync.*)  std::mutex,
//                                   lock_guard, unique_lock,
//                                   condition_variable and friends:
//                                   every lock in the tree must be an
//                                   obs::Mutex so it is named, ranked,
//                                   deadlock-checked, and accounted;
//                                   src/obs/sync.h is the one wrapper
//                                   over the std primitives.
//   module-layering        (src/)   an #include from module A into
//                                   module B where tools/layers.txt
//                                   puts B at the same or a higher
//                                   layer than A. "allow A B" lines in
//                                   the map whitelist deliberate upward
//                                   edges (core -> obs for the abort
//                                   path). tests/bench/tools sit on top
//                                   and may include anything.
//   include-cycle          (all)    the project include graph must stay
//                                   acyclic; every #include line that
//                                   sits on a cycle is reported with
//                                   the cycle's membership.
//
// Scanning is comment- and string-aware: rule patterns inside comments
// or string literals never fire. A finding on a line whose raw text
// contains `lint:allow(<rule>)` (necessarily inside a comment) is
// suppressed.
//
// --selftest runs the same walker over tools/lint_fixtures/, whose
// files annotate each intended violation with `// expect-lint: <rule>`,
// and verifies the findings match the annotations exactly — both
// missed violations and spurious findings fail the selftest.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // path relative to the scanned root
  int line = 0;
  std::string rule;
  std::string message;
};

// --- Comment/string stripping ---------------------------------------------

/// Strips // and /* */ comments and the contents of string/char literals
/// from `text`, preserving line structure (every '\n' survives) so line
/// numbers in findings stay exact. Literal delimiters are kept so code
/// shape is preserved; raw strings R"(...)" are handled.
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + text.substr(i + 2, paren - i - 2) + "\"";
            state = State::kRawString;
            out += "\"";
            i = paren;
          } else {
            out += c;
          }
        } else if (c == '"') {
          state = State::kString;
          out += c;
        } else if (c == '\'') {
          state = State::kChar;
          out += c;
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += c;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else if (c == '\n') {
          out += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += c;
        } else if (c == '\n') {
          out += c;  // unterminated; keep line structure
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += c;
        } else if (c == '\n') {
          out += c;
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          out += "\"";
          state = State::kCode;
        } else if (c == '\n') {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True if `needle` occurs in `line` as a whole word (not preceded or
/// followed by an identifier character).
bool ContainsWord(const std::string& line, const std::string& needle) {
  size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    size_t end = pos + needle.size();
    bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// Matches `name` followed by optional whitespace and '('.
bool ContainsCall(const std::string& line, const std::string& name) {
  size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    size_t end = pos + name.size();
    while (end < line.size() &&
           std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    if (left_ok && end < line.size() && line[end] == '(') return true;
    pos += name.size();
  }
  return false;
}

/// Matches a call to the POSIX socket-API function `name`: `name(` or
/// the global-qualified `::name(`, but not member calls (`sock.bind(`,
/// `server->connect(`) or other-namespace qualifications (`std::bind(`),
/// which are unrelated to the socket API.
bool ContainsSocketCall(const std::string& line, const std::string& name) {
  size_t pos = 0;
  while ((pos = line.find(name, pos)) != std::string::npos) {
    size_t end = pos + name.size();
    size_t paren = end;
    while (paren < line.size() &&
           std::isspace(static_cast<unsigned char>(line[paren]))) {
      ++paren;
    }
    bool is_call = paren < line.size() && line[paren] == '(' &&
                   (end >= line.size() || !IsWordChar(line[end]));
    if (!is_call) {
      pos = end;
      continue;
    }
    if (pos > 0) {
      char left = line[pos - 1];
      if (IsWordChar(left) || left == '.' || left == '>') {
        pos = end;
        continue;
      }
      if (left == ':') {
        // Qualified: only the global `::name(` form is the socket API.
        bool global_qualified = pos >= 2 && line[pos - 2] == ':' &&
                                (pos == 2 || !IsWordChar(line[pos - 3]));
        if (!global_qualified) {
          pos = end;
          continue;
        }
      }
    }
    return true;
  }
  return false;
}

/// Finds a std:: synchronization primitive on the line. Tokens are
/// matched with a left word boundary only, so std::condition_variable
/// also catches std::condition_variable_any; the full identifier is
/// returned through `which` for the finding message.
bool ContainsStdSync(const std::string& line, std::string* which) {
  static const char* kTokens[] = {
      "mutex",       "recursive_mutex", "timed_mutex",
      "shared_mutex", "lock_guard",     "scoped_lock",
      "unique_lock", "shared_lock",     "condition_variable"};
  for (const char* tok : kTokens) {
    std::string needle = std::string("std::") + tok;
    size_t pos = 0;
    while ((pos = line.find(needle, pos)) != std::string::npos) {
      if (pos == 0 || !IsWordChar(line[pos - 1])) {
        size_t end = pos + needle.size();
        while (end < line.size() && IsWordChar(line[end])) ++end;
        *which = line.substr(pos, end - pos);
        return true;
      }
      pos += needle.size();
    }
  }
  return false;
}

/// True when `name` matches lcrec\.[a-z0-9_.]+ in full: the "lcrec."
/// namespace prefix followed only by lowercase dotted words. A trailing
/// dot is fine (prefixes completed by runtime concatenation).
bool ValidMetricName(const std::string& name) {
  const std::string prefix = "lcrec.";
  if (name.size() <= prefix.size() || name.rfind(prefix, 0) != 0) {
    return false;
  }
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    char c = name[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
              c == '.';
    if (!ok) return false;
  }
  return true;
}

// --- Rules -----------------------------------------------------------------

std::string ExpectedGuard(const std::string& rel_path) {
  std::string p = rel_path;
  if (p.rfind("src/", 0) == 0) p = p.substr(4);
  std::string guard = "LCREC_";
  for (char c : p) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

void LintFile(const std::string& rel_path, const std::string& text,
              std::vector<Finding>* findings) {
  const bool is_header = rel_path.size() > 2 &&
                         rel_path.compare(rel_path.size() - 2, 2, ".h") == 0;
  const bool in_src = StartsWith(rel_path, "src/");
  const bool in_obs = StartsWith(rel_path, "src/obs/");
  const bool in_ckpt = StartsWith(rel_path, "src/ckpt/");
  const bool in_serve = StartsWith(rel_path, "src/serve/");
  const bool in_net = StartsWith(rel_path, "src/net/");
  const bool in_socket_layer = rel_path == "src/obs/socket.cc";

  std::vector<std::string> raw_lines = SplitLines(text);
  std::vector<std::string> code_lines =
      SplitLines(StripCommentsAndStrings(text));

  auto suppressed = [&raw_lines](int line_no, const std::string& rule) {
    const std::string& raw = raw_lines[static_cast<size_t>(line_no) - 1];
    return raw.find("lint:allow(" + rule + ")") != std::string::npos;
  };
  auto add = [&](int line_no, const std::string& rule,
                 const std::string& message) {
    if (suppressed(line_no, rule)) return;
    findings->push_back({rel_path, line_no, rule, message});
  };

  std::string first_guard;
  int first_guard_line = 0;
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    int line_no = static_cast<int>(i) + 1;

    if (in_src && ContainsCall(line, "assert") &&
        !ContainsWord(line, "static_assert")) {
      add(line_no, "bare-assert",
          "use LCREC_CHECK*/LCREC_DCHECK* (core/check.h) instead of "
          "assert()");
    }
    if (in_src && !in_obs) {
      bool fprintf_stderr = false;
      size_t pos = line.find("fprintf");
      while (pos != std::string::npos) {
        size_t rest = line.find("stderr", pos);
        if ((pos == 0 || !IsWordChar(line[pos - 1])) &&
            rest != std::string::npos && rest - pos < 16) {
          fprintf_stderr = true;
          break;
        }
        pos = line.find("fprintf", pos + 1);
      }
      if (fprintf_stderr) {
        add(line_no, "raw-stderr",
            "use obs logging (obs/log.h) instead of fprintf(stderr, ...)");
      }
      if (ContainsCall(line, "printf")) {
        add(line_no, "raw-stderr",
            "library code must not printf; use obs logging or return data");
      }
    }
    if (in_src && !in_ckpt && ContainsWord(line, "ofstream") &&
        ContainsWord(line, "binary")) {
      add(line_no, "ckpt-bypass",
          "binary state writes must go through lcrec::ckpt (atomic + "
          "CRC32) or core/serialize.cc, not a raw std::ofstream");
    }
    if (in_src && !in_serve && !in_obs && !in_net &&
        ContainsWord(line, "std::thread") &&
        line.find("hardware_concurrency") == std::string::npos) {
      add(line_no, "raw-thread",
          "threads belong in src/serve/ (scheduler), src/net/ (RPC event "
          "loop), or src/obs/ (test scaffolding); the model/training core "
          "is single-threaded by design");
    }
    if (in_src && !StartsWith(rel_path, "src/obs/sync.")) {
      std::string which;
      if (ContainsStdSync(line, &which)) {
        add(line_no, "raw-sync",
            which + " outside src/obs/sync.h — use obs::Mutex / MutexLock "
                    "/ UniqueLock / CondVar (obs/sync.h) so every lock is "
                    "named, ranked, deadlock-checked, and accounted");
      }
    }
    if (in_src) {
      // The stripped line proves there is a real call (not a comment or
      // string mention); the literal itself must be read from the raw
      // line, since stripping drops string contents.
      static const char* kMetricGetters[] = {"GetCounter", "GetGauge",
                                             "GetHistogram"};
      for (const char* getter : kMetricGetters) {
        if (!ContainsCall(line, getter)) continue;
        const std::string& raw = raw_lines[i];
        size_t cpos = raw.find(getter);
        if (cpos == std::string::npos) continue;
        size_t q0 = raw.find('"', cpos);
        if (q0 == std::string::npos) continue;  // non-literal name: skip
        size_t q1 = raw.find('"', q0 + 1);
        if (q1 == std::string::npos) continue;
        std::string name = raw.substr(q0 + 1, q1 - q0 - 1);
        if (!ValidMetricName(name)) {
          add(line_no, "metric-name",
              "metric name \"" + name +
                  "\" must match lcrec\\.[a-z0-9_.]+ (the exported "
                  "namespace is uniform by construction)");
        }
      }
    }
    if (in_src && !StartsWith(rel_path, "src/serve/chaos.") &&
        ContainsCall(line, "getenv")) {
      // Same two-step as metric-name: the stripped line proves a real
      // getenv call; the variable name is read from the raw line.
      const std::string& raw = raw_lines[i];
      size_t cpos = raw.find("getenv");
      size_t q0 = cpos == std::string::npos ? std::string::npos
                                            : raw.find('"', cpos);
      size_t q1 = q0 == std::string::npos ? std::string::npos
                                          : raw.find('"', q0 + 1);
      if (q1 != std::string::npos) {
        std::string var = raw.substr(q0 + 1, q1 - q0 - 1);
        if (StartsWith(var, "LCREC_CHAOS")) {
          add(line_no, "chaos-site",
              "getenv(\"" + var +
                  "\") outside src/serve/chaos.* — the chaos env contract "
                  "has one owner; use the serve::chaos hooks "
                  "(ArmChaosFromEnv / OnDecode / OnQueueAdmit) instead of "
                  "re-reading the env");
        }
      }
    }
    if (!in_socket_layer) {
      static const char* kSocketCalls[] = {"socket", "bind",    "listen",
                                           "accept", "connect", "poll",
                                           "pipe"};
      for (const char* call : kSocketCalls) {
        if (ContainsSocketCall(line, call)) {
          add(line_no, "raw-socket",
              std::string(call) +
                  "() outside src/obs/socket.cc — all networking funnels "
                  "through the one audited socket layer (obs::EventLoop, "
                  "obs::ConnectTcp / SendAll / RecvSome)");
          break;  // one finding per line even when several names match
        }
      }
    }
    if (ContainsWord(line, "std::rand") || ContainsCall(line, "srand")) {
      add(line_no, "std-rand",
          "use core::Rng (core/rng.h); std::rand/srand break "
          "reproducibility");
    }
    if (is_header && line.find("using namespace") != std::string::npos) {
      add(line_no, "using-namespace-header",
          "`using namespace` in a header leaks into every includer");
    }
    if (is_header && first_guard.empty()) {
      size_t pos = line.find("#ifndef");
      if (pos != std::string::npos) {
        std::istringstream is(line.substr(pos + 7));
        is >> first_guard;
        first_guard_line = line_no;
      }
    }
  }

  if (is_header) {
    std::string expected = ExpectedGuard(rel_path);
    if (first_guard.empty()) {
      add(1, "include-guard", "missing include guard " + expected);
    } else if (first_guard != expected) {
      add(first_guard_line, "include-guard",
          "guard is " + first_guard + ", expected " + expected);
    }
  }
}

// --- Include graph: layering + cycles --------------------------------------

/// One `#include "..."` directive. `raw` keeps the raw line text so the
/// post-passes can honor lint:allow(<rule>) suppressions.
struct IncludeRef {
  std::string file;  // includer, relative to the scanned root
  int line = 0;
  std::string path;  // the quoted path as written
  std::string raw;
};

/// Collects project includes (quoted form only; <system> headers are
/// not part of the layering contract). The directive is confirmed on
/// the stripped line — a "#include" inside a comment or string never
/// counts — but the path itself must be read from the raw line, since
/// stripping empties string-literal contents and the include path is
/// lexed as a string literal.
void CollectIncludes(const std::string& rel_path, const std::string& text,
                     std::vector<IncludeRef>* out) {
  std::vector<std::string> raw_lines = SplitLines(text);
  std::vector<std::string> code_lines =
      SplitLines(StripCommentsAndStrings(text));
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& code = code_lines[i];
    size_t h = code.find("#include");
    if (h == std::string::npos) continue;
    bool directive = true;
    for (size_t j = 0; j < h; ++j) {
      if (!std::isspace(static_cast<unsigned char>(code[j]))) {
        directive = false;
        break;
      }
    }
    if (!directive || code.find('"', h) == std::string::npos) continue;
    const std::string& raw = raw_lines[i];
    size_t q0 = raw.find('"', h);
    if (q0 == std::string::npos) continue;
    size_t q1 = raw.find('"', q0 + 1);
    if (q1 == std::string::npos) continue;
    out->push_back({rel_path, static_cast<int>(i) + 1,
                    raw.substr(q0 + 1, q1 - q0 - 1), raw});
  }
}

/// The committed module layer map (tools/layers.txt): "<module> <layer>"
/// lines order the src/ modules bottom-up; "allow <from> <to>" lines
/// whitelist deliberate upward edges. '#' starts a comment.
struct LayerMap {
  bool loaded = false;
  std::map<std::string, int> layer;
  std::set<std::pair<std::string, std::string>> allow;
};

LayerMap LoadLayerMap(const fs::path& file) {
  LayerMap m;
  std::ifstream in(file);
  if (!in) return m;
  m.loaded = true;
  std::string line;
  while (std::getline(in, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream is(line);
    std::string a, b;
    if (!(is >> a)) continue;
    if (a == "allow") {
      std::string c;
      if (is >> b >> c) m.allow.insert({b, c});
    } else if (is >> b) {
      m.layer[a] = std::atoi(b.c_str());
    }
  }
  return m;
}

/// "src/<module>/..." -> module name; anything else (tests/, bench/,
/// files directly under src/) -> "".
std::string ModuleOf(const std::string& rel_path) {
  if (!StartsWith(rel_path, "src/")) return "";
  size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel_path.substr(4, slash - 4);
}

/// First path component of an include path ("serve/queue.h" -> "serve").
std::string IncludeModule(const std::string& path) {
  size_t slash = path.find('/');
  if (slash == std::string::npos) return "";
  return path.substr(0, slash);
}

bool RawSuppressed(const IncludeRef& inc, const std::string& rule) {
  return inc.raw.find("lint:allow(" + rule + ")") != std::string::npos;
}

/// module-layering: a src/ file may include its own module and any
/// strictly lower layer. Equal layers have no declared order between
/// modules — same refusal as equal mutex ranks — so they are back-edges
/// too unless the map allows the pair.
void LintLayering(const LayerMap& layers,
                  const std::vector<IncludeRef>& includes,
                  std::vector<Finding>* findings) {
  if (!layers.loaded) return;
  for (const IncludeRef& inc : includes) {
    std::string from = ModuleOf(inc.file);
    std::string to = IncludeModule(inc.path);
    if (from.empty() || to.empty() || from == to) continue;
    auto fit = layers.layer.find(from);
    auto tit = layers.layer.find(to);
    if (fit == layers.layer.end() || tit == layers.layer.end()) continue;
    if (tit->second < fit->second) continue;
    if (layers.allow.count({from, to})) continue;
    if (RawSuppressed(inc, "module-layering")) continue;
    findings->push_back(
        {inc.file, inc.line, "module-layering",
         "#include \"" + inc.path + "\" is a layering back-edge: src/" +
             from + " (layer " + std::to_string(fit->second) +
             ") must not reach src/" + to + " (layer " +
             std::to_string(tit->second) +
             "); the map is tools/layers.txt"});
  }
}

/// include-cycle: Tarjan SCC over the resolved project include graph.
/// Every #include directive whose edge stays inside a nontrivial SCC is
/// reported, so each participating line of the cycle gets a finding.
void LintIncludeCycles(const std::vector<std::string>& files,
                       const std::vector<IncludeRef>& includes,
                       std::vector<Finding>* findings) {
  std::set<std::string> file_set(files.begin(), files.end());
  // Repo includes are rooted at src/ (headers) or the repo root (tests
  // and bench reaching into src the same way, via include dirs).
  auto resolve = [&file_set](const std::string& path) -> std::string {
    std::string in_src = "src/" + path;
    if (file_set.count(in_src)) return in_src;
    if (file_set.count(path)) return path;
    return "";
  };

  std::map<std::string, std::vector<std::string>> adj;
  for (const IncludeRef& inc : includes) {
    std::string to = resolve(inc.path);
    if (!to.empty() && to != inc.file) adj[inc.file].push_back(to);
  }

  std::map<std::string, int> index, low, comp;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::map<int, std::vector<std::string>> members;
  int next_index = 0, next_comp = 0;

  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack.insert(v);
        auto it = adj.find(v);
        if (it != adj.end()) {
          for (const std::string& w : it->second) {
            if (!index.count(w)) {
              strongconnect(w);
              low[v] = std::min(low[v], low[w]);
            } else if (on_stack.count(w)) {
              low[v] = std::min(low[v], index[w]);
            }
          }
        }
        if (low[v] == index[v]) {
          int c = next_comp++;
          for (;;) {
            std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            comp[w] = c;
            members[c].push_back(w);
            if (w == v) break;
          }
        }
      };
  for (const std::string& f : files) {
    if (!index.count(f)) strongconnect(f);
  }

  for (const IncludeRef& inc : includes) {
    std::string to = resolve(inc.path);
    if (to.empty() || to == inc.file) continue;
    int c = comp[inc.file];
    if (c != comp[to] || members[c].size() < 2) continue;
    if (RawSuppressed(inc, "include-cycle")) continue;
    std::vector<std::string> cycle = members[c];
    std::sort(cycle.begin(), cycle.end());
    std::string joined;
    for (const std::string& m : cycle) {
      if (!joined.empty()) joined += ", ";
      joined += m;
    }
    findings->push_back({inc.file, inc.line, "include-cycle",
                         "#include \"" + inc.path +
                             "\" closes a header include cycle among: " +
                             joined});
  }
}

// --- Walking ---------------------------------------------------------------

bool IsSourceFile(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

std::vector<Finding> LintTree(const fs::path& root,
                              const std::vector<std::string>& subdirs) {
  std::vector<Finding> findings;
  std::vector<std::string> files;
  for (const std::string& sub : subdirs) {
    fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        files.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<IncludeRef> includes;
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    LintFile(rel, buf.str(), &findings);
    CollectIncludes(rel, buf.str(), &includes);
  }
  LintLayering(LoadLayerMap(root / "tools" / "layers.txt"), includes,
               &findings);
  LintIncludeCycles(files, includes, &findings);
  return findings;
}

// --- Selftest --------------------------------------------------------------

/// Expected findings from `// expect-lint: <rule>` annotations in the
/// fixture tree. One annotation marks one violation on its own line.
std::vector<Finding> ExpectedFindings(const fs::path& root,
                                      const std::vector<std::string>& subdirs) {
  std::vector<Finding> expected;
  std::vector<std::string> files;
  for (const std::string& sub : subdirs) {
    fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file() && IsSourceFile(entry.path())) {
        files.push_back(fs::relative(entry.path(), root).generic_string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      size_t pos = line.find("expect-lint:");
      if (pos == std::string::npos) continue;
      std::istringstream is(line.substr(pos + 12));
      std::string rule;
      while (is >> rule) {
        expected.push_back({rel, line_no, rule, ""});
      }
    }
  }
  return expected;
}

bool SameFinding(const Finding& a, const Finding& b) {
  return a.file == b.file && a.line == b.line && a.rule == b.rule;
}

int RunSelftest(const fs::path& fixtures) {
  const std::vector<std::string> subdirs = {"src", "tests", "bench"};
  std::vector<Finding> got = LintTree(fixtures, subdirs);
  std::vector<Finding> want = ExpectedFindings(fixtures, subdirs);
  auto key = [](const Finding& f) {
    return f.file + ":" + std::to_string(f.line) + ":" + f.rule;
  };
  auto by_key = [&key](const Finding& a, const Finding& b) {
    return key(a) < key(b);
  };
  std::sort(got.begin(), got.end(), by_key);
  std::sort(want.begin(), want.end(), by_key);

  int failures = 0;
  for (const Finding& w : want) {
    bool hit = std::any_of(got.begin(), got.end(), [&](const Finding& g) {
      return SameFinding(g, w);
    });
    if (!hit) {
      std::printf("selftest MISS: expected %s:%d [%s] was not reported\n",
                  w.file.c_str(), w.line, w.rule.c_str());
      ++failures;
    }
  }
  for (const Finding& g : got) {
    bool hit = std::any_of(want.begin(), want.end(), [&](const Finding& w) {
      return SameFinding(g, w);
    });
    if (!hit) {
      std::printf("selftest SPURIOUS: %s:%d [%s] %s\n", g.file.c_str(),
                  g.line, g.rule.c_str(), g.message.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("lcrec_lint selftest: OK (%zu expected findings, all "
                "matched, none spurious)\n",
                want.size());
    return 0;
  }
  std::printf("lcrec_lint selftest: FAILED (%d mismatches)\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::printf("usage: lcrec_lint [--root DIR] [--selftest]\n");
      return 2;
    }
  }

  if (selftest) return RunSelftest(root / "tools" / "lint_fixtures");

  std::vector<Finding> findings = LintTree(root, {"src", "tests", "bench"});
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (findings.empty()) {
    std::printf("lcrec_lint: OK (0 findings)\n");
    return 0;
  }
  std::printf("lcrec_lint: %zu finding(s)\n", findings.size());
  return 1;
}
