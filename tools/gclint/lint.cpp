#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

namespace gclint {

namespace {

constexpr const char* kRules[] = {"rand",           "wallclock",
                                  "thread",         "unchecked-status",
                                  "unordered-iter", "dtm-store",
                                  "hot-string",     "mc-blocking",
                                  "net-cost"};

/// A file after preprocessing: stripped code lines plus suppression state.
struct Prepared {
  const FileInput* input = nullptr;
  std::string path;                      ///< forward slashes, leading '/'
  std::vector<std::string> lines;        ///< comments/strings blanked
  std::vector<std::set<std::string>> allow;  ///< per-line allowed rules
  std::set<std::string> allow_file;
};

std::string normalize_path(const std::string& raw) {
  std::string path = raw;
  std::replace(path.begin(), path.end(), '\\', '/');
  if (path.empty() || path.front() != '/') path.insert(path.begin(), '/');
  return path;
}

bool in_dir(const Prepared& file, const char* dir) {
  return file.path.find(dir) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Token matching. The rules match a few fixed shapes of C++ text; these
// helpers spell the shapes out by hand instead of through <regex>, whose
// libstdc++ compiler GCC 12 cannot build warning-free under ASan. A "word"
// is [A-Za-z0-9_]+, an identifier a word that does not start with a digit.

bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True iff no word character sits right before position i.
bool word_starts(const std::string& s, std::size_t i) {
  return i == 0 || !word_char(s[i - 1]);
}

/// True iff no word character sits at position i.
bool word_ends(const std::string& s, std::size_t i) {
  return i >= s.size() || !word_char(s[i]);
}

bool has_at(const std::string& s, std::size_t i, std::string_view text) {
  return i <= s.size() && s.size() - i >= text.size() &&
         s.compare(i, text.size(), text) == 0;
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// End of the identifier that starts at i, or i if none does.
std::size_t identifier_end(const std::string& s, std::size_t i) {
  if (i >= s.size() ||
      (std::isalpha(static_cast<unsigned char>(s[i])) == 0 && s[i] != '_')) {
    return i;
  }
  ++i;
  while (i < s.size() && word_char(s[i])) ++i;
  return i;
}

/// Length of a member access `.` or `->` at i, 0 if there is none.
std::size_t member_op(const std::string& s, std::size_t i) {
  if (has_at(s, i, ".")) return 1;
  if (has_at(s, i, "->")) return 2;
  return 0;
}

/// If `name` starts at i and is followed by optional spaces and `(`,
/// the index after the `(`; otherwise npos.
std::size_t call_at(const std::string& s, std::size_t i,
                    std::string_view name) {
  if (!has_at(s, i, name)) return std::string::npos;
  const std::size_t j = skip_spaces(s, i + name.size());
  return has_at(s, j, "(") ? j + 1 : std::string::npos;
}

/// True iff `( )` (spaces allowed inside) follows `name` at i.
bool empty_call_at(const std::string& s, std::size_t i,
                   std::string_view name) {
  const std::size_t j = call_at(s, i, name);
  return j != std::string::npos && has_at(s, skip_spaces(s, j), ")");
}

/// True iff `name` occurs in s as a whole word.
bool has_word(const std::string& s, std::string_view name) {
  for (std::size_t i = s.find(name); i != std::string::npos;
       i = s.find(name, i + 1)) {
    if (word_starts(s, i) && word_ends(s, i + name.size())) return true;
  }
  return false;
}

/// The first occurrence of `name`, starting a word, that is called:
/// `name (`. npos if there is none.
std::size_t find_call(const std::string& s, std::string_view name) {
  for (std::size_t i = s.find(name); i != std::string::npos;
       i = s.find(name, i + 1)) {
    if (word_starts(s, i) && call_at(s, i, name) != std::string::npos) {
      return i;
    }
  }
  return std::string::npos;
}

/// True iff a member call `.name(` / `->name(` occurs in s (spaces
/// allowed around the operator); with `no_args`, only `.name()`.
bool has_member_call(const std::string& s, std::string_view name,
                     bool no_args) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::size_t op = member_op(s, i);
    if (op == 0) continue;
    const std::size_t j = skip_spaces(s, i + op);
    if (no_args ? empty_call_at(s, j, name)
                : call_at(s, j, name) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Blanks comments, string literals, and char literals while preserving
/// the line structure, so rule patterns never match inside either. Handles
/// raw strings with custom delimiters. The delimiting double quotes of
/// ordinary string literals are KEPT (contents blanked) so rules that care
/// about where literals sit — hot-string's `"..." + x` pattern — can see
/// them; raw and char literals are blanked entirely, quotes included.
std::string strip(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_end;  // ")delim\"" terminator of the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out += "  ";
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          std::size_t paren = src.find('(', i + 2);
          if (paren == std::string::npos) {
            out += c;
            break;
          }
          raw_end = ")" + src.substr(i + 2, paren - i - 2) + "\"";
          state = State::kRaw;
          out.append(paren - i + 1, ' ');
          i = paren;
        } else if (c == '"') {
          state = State::kString;
          out += '"';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
          out += c;
        } else {
          out += ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out += '"';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kRaw:
        if (src.compare(i, raw_end.size(), raw_end) == 0) {
          out.append(raw_end.size(), ' ');
          i += raw_end.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type begin = 0;
  while (begin <= text.size()) {
    const auto end = text.find('\n', begin);
    if (end == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

bool is_blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

std::vector<std::string> split_rule_list(const std::string& list) {
  std::vector<std::string> rules;
  std::string current;
  for (const char c : list) {
    if (c == ',') {
      if (!current.empty()) rules.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current += c;
    }
  }
  if (!current.empty()) rules.push_back(current);
  return rules;
}

bool known_rule(const std::string& rule) {
  for (const char* name : kRules) {
    if (rule == name) return true;
  }
  return false;
}

/// Parses `// gclint: allow(...)` / `allow-file(...)` directives from the
/// ORIGINAL lines (they live inside comments, which strip() blanks out).
/// A `// gclint: allow(...)` or `allow-file(...)` directive in `line`:
/// sets `whole_file` and `rules` (the text between the parentheses) and
/// returns true, or returns false if the line has none.
bool parse_directive(const std::string& line, bool& whole_file,
                     std::string& rules) {
  for (std::size_t i = line.find("//"); i != std::string::npos;
       i = line.find("//", i + 1)) {
    std::size_t j = skip_spaces(line, i + 2);
    if (!has_at(line, j, "gclint:")) continue;
    j = skip_spaces(line, j + 7);
    whole_file = has_at(line, j, "allow-file(");
    if (!whole_file && !has_at(line, j, "allow(")) continue;
    j += whole_file ? 11 : 6;
    const std::size_t close = line.find(')', j);
    if (close == std::string::npos) continue;
    rules = line.substr(j, close - j);
    return true;
  }
  return false;
}

/// Parses `// gclint: allow(...)` / `allow-file(...)` directives from the
/// ORIGINAL lines (they live inside comments, which strip() blanks out).
void collect_suppressions(const std::vector<std::string>& raw_lines,
                          Prepared& file, std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    bool whole_file = false;
    std::string list;
    if (!parse_directive(raw_lines[i], whole_file, list)) continue;
    for (const std::string& rule : split_rule_list(list)) {
      if (!known_rule(rule)) {
        findings.push_back({file.input->path, static_cast<int>(i + 1),
                            "directive",
                            "suppression names unknown rule '" + rule + "'"});
        continue;
      }
      if (whole_file) {
        file.allow_file.insert(rule);
      } else {
        file.allow[i].insert(rule);
        // A directive alone on its line covers the line below it.
        if (i + 1 < file.lines.size() && is_blank(file.lines[i])) {
          file.allow[i + 1].insert(rule);
        }
      }
    }
  }
}

bool suppressed(const Prepared& file, std::size_t line_index,
                const std::string& rule) {
  if (file.allow_file.count(rule) > 0) return true;
  return line_index < file.allow.size() &&
         file.allow[line_index].count(rule) > 0;
}

void report(const Prepared& file, std::size_t line_index,
            const std::string& rule, const std::string& message,
            std::vector<Finding>& findings) {
  if (suppressed(file, line_index, rule)) return;
  findings.push_back({file.input->path, static_cast<int>(line_index + 1),
                      rule, message});
}

// ---------------------------------------------------------------------------
// rand: nondeterministic random sources outside the blessed RNG module.

void check_rand(const Prepared& file, std::vector<Finding>& findings) {
  if (in_dir(file, "common/rng.")) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    if (has_word(line, "std::rand") ||
        find_call(line, "srand") != std::string::npos ||
        has_word(line, "random_device")) {
      report(file, i, "rand",
             "nondeterministic random source; use gc::Rng (common/rng.hpp)",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// wallclock: real-time reads inside simulation-path code. Virtual time
// comes from the DES engine; a wall-clock read there silently couples
// results to host speed.

void check_wallclock(const Prepared& file, std::vector<Finding>& findings) {
  if (!in_dir(file, "/des/") && !in_dir(file, "/net/") &&
      !in_dir(file, "/diet/") && !in_dir(file, "/ramses/")) {
    return;
  }
  static constexpr std::string_view kClocks[] = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "clock_gettime"};
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (std::any_of(std::begin(kClocks), std::end(kClocks),
                    [&](std::string_view clock) {
                      return has_word(file.lines[i], clock);
                    })) {
      report(file, i, "wallclock",
             "wall-clock read in sim-path code; use Env::now() virtual time",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// thread: raw std::thread outside the shared pool. Ad-hoc threads bypass
// the pool's determinism guarantees and GC_THREADS sizing.

void check_thread(const Prepared& file, std::vector<Finding>& findings) {
  if (in_dir(file, "/parallel/")) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (has_word(file.lines[i], "std::thread")) {
      report(file, i, "thread",
             "raw std::thread outside src/parallel; use the shared pool",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// mc-blocking: wall-clock sleeps and unbounded blocking waits in the
// middleware layers (src/diet, src/dtm). Those layers run under the DPOR
// model checker (src/mc), which owns the virtual clock and explores one
// dispatch at a time — a host-time sleep or an open-ended wait there
// either stalls exploration or hides an ordering behind real time where
// the checker cannot permute it. Timer work belongs on Env::post_after,
// and a caller that must wait runs the engine until its event happened.

/// future<T>::get blocks until the value exists; only identifiers that
/// look like futures are flagged (smart-pointer .get() is everywhere): a
/// word containing "future", then `.get()` or `->get()`.
bool future_get(const std::string& line) {
  for (std::size_t i = line.find("future"); i != std::string::npos;
       i = line.find("future", i + 1)) {
    std::size_t end = i;
    while (end < line.size() && word_char(line[end])) ++end;
    const std::size_t j = skip_spaces(line, end);
    const std::size_t op = member_op(line, j);
    if (op > 0 && empty_call_at(line, skip_spaces(line, j + op), "get")) {
      return true;
    }
  }
  return false;
}

void check_mc_blocking(const Prepared& file, std::vector<Finding>& findings) {
  if (!in_dir(file, "/diet/") && !in_dir(file, "/dtm/")) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    const char* what = nullptr;
    if (find_call(line, "sleep_for") != std::string::npos ||
        find_call(line, "sleep_until") != std::string::npos) {
      // sleep_for/sleep_until: always wrong here, even bounded — they
      // block the dispatch thread on the host clock.
      what = "wall-clock sleep";
    } else if (has_member_call(line, "wait", false)) {
      // member wait() with no deadline: condition_variable::wait,
      // future::wait, semaphore-style wait. wait_for/wait_until (bounded)
      // and names like wait_idle do not match.
      what = "unbounded wait()";
    } else if (future_get(line)) {
      what = "blocking future get()";
    } else if (has_member_call(line, "acquire", true)) {
      // counting_semaphore::acquire and friends.
      what = "semaphore acquire()";
    }
    if (what != nullptr) {
      report(file, i, "mc-blocking",
             std::string(what) +
                 " in model-checked middleware; use Env::post_after (or a "
                 "bounded wait_for) so src/mc can explore around it",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-status: a bare expression-statement call to a function whose
// declaration (anywhere in the input set) returns Status or Result<...>.

/// If `Status` or `Result<...>` (no `<`, `>` or `;` inside the brackets),
/// optionally written `gc::`, starts at i and declares a function
/// `name (`, where the type does not continue a word, a `::` or a `<`:
/// returns the index after the `(` and sets `name`; otherwise npos.
std::size_t status_decl_at(const std::string& line, std::size_t i,
                           std::size_t consumed, std::string& name) {
  std::size_t type_end = std::string::npos;
  if (has_at(line, i, "Status")) {
    type_end = i + 6;
  } else if (has_at(line, i, "Result<")) {
    const std::size_t close = line.find_first_of("<>;", i + 7);
    if (close != std::string::npos && line[close] == '>') type_end = close + 1;
  }
  if (type_end == std::string::npos) return std::string::npos;
  const std::size_t start = i >= 4 && has_at(line, i - 4, "gc::") ? i - 4 : i;
  if (start > 0) {
    const char before = line[start - 1];
    if (start - 1 < consumed || word_char(before) || before == ':' ||
        before == '<') {
      return std::string::npos;
    }
  }
  const std::size_t name_begin = skip_spaces(line, type_end);
  if (name_begin == type_end) return std::string::npos;  // \s+
  const std::size_t name_end = identifier_end(line, name_begin);
  if (name_end == name_begin) return std::string::npos;
  const std::size_t open = skip_spaces(line, name_end);
  if (!has_at(line, open, "(")) return std::string::npos;
  name = line.substr(name_begin, name_end - name_begin);
  return open + 1;
}

/// Every function name `line` declares with a `void` return:
/// `void name (`.
void void_decls(const std::string& line, std::set<std::string>& names) {
  for (std::size_t i = line.find("void"); i != std::string::npos;
       i = line.find("void", i + 1)) {
    if (!word_starts(line, i)) continue;
    const std::size_t name_begin = skip_spaces(line, i + 4);
    if (name_begin == i + 4) continue;
    const std::size_t name_end = identifier_end(line, name_begin);
    if (name_end == name_begin ||
        !has_at(line, skip_spaces(line, name_end), "(")) {
      continue;
    }
    names.insert(line.substr(name_begin, name_end - name_begin));
  }
}

std::set<std::string> collect_status_returning(
    const std::vector<Prepared>& files) {
  std::set<std::string> names;
  for (const Prepared& file : files) {
    for (const std::string& line : file.lines) {
      std::size_t consumed = 0;  // declarations do not overlap
      for (std::size_t i = 0; i < line.size();) {
        std::string name;
        const std::size_t end = status_decl_at(line, i, consumed, name);
        if (end == std::string::npos) {
          ++i;
          continue;
        }
        names.insert(name);
        consumed = i = end;
      }
    }
  }
  // Factory helpers whose value is the point of the call; a bare statement
  // of these is dead code, not a swallowed error.
  names.erase("ok");
  names.erase("make_error");
  // Ambiguity guard: a name also declared with a void return anywhere in
  // the set (RunningStats::add vs ServiceTable::add) cannot be attributed
  // by token matching — precision wins over recall, skip it.
  std::set<std::string> void_names;
  for (const Prepared& file : files) {
    for (const std::string& line : file.lines) void_decls(line, void_names);
  }
  for (const std::string& name : void_names) names.erase(name);
  return names;
}

/// A bare expression-statement call, the whole line: optional spaces, a
/// chain of identifiers joined by `::`, `.` or `->`, `(`, anything, `)`,
/// `;`. Assignments, conditions and `return` lines never match. Returns
/// the called name (the chain's last identifier), or "" if none.
std::string bare_call_name(const std::string& line) {
  std::size_t begin = skip_spaces(line, 0);
  std::size_t end = identifier_end(line, begin);
  if (end == begin) return "";
  for (;;) {
    std::size_t sep = 0;
    if (has_at(line, end, "::")) {
      sep = 2;
    } else {
      sep = member_op(line, end);
    }
    if (sep == 0) break;
    const std::size_t next_end = identifier_end(line, end + sep);
    if (next_end == end + sep) return "";
    begin = end + sep;
    end = next_end;
  }
  const std::size_t open = skip_spaces(line, end);
  if (!has_at(line, open, "(")) return "";
  std::size_t last = line.size();
  while (last > open + 1 &&
         std::isspace(static_cast<unsigned char>(line[last - 1]))) {
    --last;
  }
  if (last <= open + 1 || line[last - 1] != ';') return "";
  --last;
  while (last > open + 1 &&
         std::isspace(static_cast<unsigned char>(line[last - 1]))) {
    --last;
  }
  if (last <= open + 1 || line[last - 1] != ')') return "";
  return line.substr(begin, end - begin);
}

void check_unchecked_status(const Prepared& file,
                            const std::set<std::string>& status_fns,
                            std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string name = bare_call_name(file.lines[i]);
    if (name.empty() || status_fns.count(name) == 0) continue;
    report(file, i, "unchecked-status",
           "result of Status-returning '" + name +
               "' is discarded; check it or cast to void with a reason",
           findings);
  }
}

// ---------------------------------------------------------------------------
// unordered-iter: range-for over a container declared unordered in the
// same file, feeding serialization/hash/stream calls — iteration order is
// hash-dependent and varies across libstdc++ versions and runs.

/// Every name `line` declares as a std::unordered_{map,set,multimap,
/// multiset}: `std::unordered_map <...> name` then `;`, `{` or `=`, where
/// the template arguments hold no `;` or `{`.
void unordered_decls(const std::string& line, std::set<std::string>& names) {
  static constexpr std::string_view kKinds[] = {"multimap", "multiset",
                                                "map", "set"};
  for (std::size_t i = line.find("std::unordered_"); i != std::string::npos;
       i = line.find("std::unordered_", i + 1)) {
    if (!word_starts(line, i)) continue;
    std::size_t j = i + 15;
    const auto kind = std::find_if(
        std::begin(kKinds), std::end(kKinds),
        [&](std::string_view k) { return has_at(line, j, k); });
    if (kind == std::end(kKinds)) continue;
    j = skip_spaces(line, j + kind->size());
    if (!has_at(line, j, "<")) continue;
    // The arguments run to some `>` before the first `;` or `{`: the last
    // such `>` after which a declared name follows.
    const std::size_t limit = std::min(line.find_first_of(";{", j + 1),
                                       line.size());
    for (std::size_t close = limit; close-- > j + 1;) {
      if (line[close] != '>') continue;
      const std::size_t name_begin = skip_spaces(line, close + 1);
      if (name_begin == close + 1) continue;
      const std::size_t name_end = identifier_end(line, name_begin);
      if (name_end == name_begin) continue;
      const std::size_t after = skip_spaces(line, name_end);
      if (after < line.size() && (line[after] == ';' || line[after] == '{' ||
                                  line[after] == '=')) {
        names.insert(line.substr(name_begin, name_end - name_begin));
        i = after;
        break;
      }
    }
  }
}

std::set<std::string> collect_unordered_names(const Prepared& file) {
  std::set<std::string> names;
  for (const std::string& line : file.lines) unordered_decls(line, names);
  return names;
}

/// The range of a range-for in `line`: `for (... : name)`, the first
/// `)` after the `(` closing it. "" if the line has none.
std::string range_for_name(const std::string& line) {
  for (std::size_t i = line.find("for"); i != std::string::npos;
       i = line.find("for", i + 1)) {
    if (!word_starts(line, i)) continue;
    const std::size_t open = skip_spaces(line, i + 3);
    if (!has_at(line, open, "(")) continue;
    const std::size_t close = line.find(')', open + 1);
    if (close == std::string::npos) continue;
    std::size_t end = close;
    while (end > open + 1 &&
           std::isspace(static_cast<unsigned char>(line[end - 1]))) {
      --end;
    }
    std::size_t begin = end;
    while (begin > open + 1 && word_char(line[begin - 1])) --begin;
    if (begin == end || identifier_end(line, begin) != end) continue;
    std::size_t colon = begin;
    while (colon > open + 1 &&
           std::isspace(static_cast<unsigned char>(line[colon - 1]))) {
      --colon;
    }
    if (colon > open + 1 && line[colon - 1] == ':') {
      return line.substr(begin, end - begin);
    }
  }
  return "";
}

/// True iff `line` serializes, hashes or streams: serialize, encode, a
/// word starting "hash", Hash, fnv, digest, `<<` or `.str(`.
bool feeds_sink(const std::string& line) {
  static constexpr std::string_view kSinks[] = {"serialize", "encode", "Hash",
                                                "fnv", "digest", "<<"};
  for (const std::string_view sink : kSinks) {
    if (line.find(sink) != std::string::npos) return true;
  }
  for (std::size_t i = line.find("hash"); i != std::string::npos;
       i = line.find("hash", i + 1)) {
    if (word_starts(line, i)) return true;
  }
  for (std::size_t i = line.find(".str"); i != std::string::npos;
       i = line.find(".str", i + 1)) {
    if (call_at(line, i, ".str") != std::string::npos) return true;
  }
  return false;
}

void check_unordered_iter(const Prepared& file,
                          std::vector<Finding>& findings) {
  const std::set<std::string> unordered = collect_unordered_names(file);
  if (unordered.empty()) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string range = range_for_name(file.lines[i]);
    if (range.empty() || unordered.count(range) == 0) continue;
    // Scan the loop body: until braces opened at/after the `for` close,
    // capped to keep the heuristic local.
    int depth = 0;
    bool opened = false;
    const std::size_t last = std::min(file.lines.size(), i + 16);
    for (std::size_t j = i; j < last; ++j) {
      for (const char c : file.lines[j]) {
        if (c == '{') {
          ++depth;
          opened = true;
        } else if (c == '}') {
          --depth;
        }
      }
      if (feeds_sink(file.lines[j])) {
        report(file, i, "unordered-iter",
               "iteration over unordered container '" + range +
                   "' feeds serialized/hashed/streamed output; sort first or "
                   "use an ordered container",
               findings);
        break;
      }
      if (opened && depth <= 0) break;
    }
  }
}

// ---------------------------------------------------------------------------
// dtm-store: direct DataManager::store outside the data-management layer.
// Every store must ride the SED's store_value path so the replica catalog
// hears about it; a bypassed store is invisible to locate/replication and
// leaks on eviction. Matches `.store(`/`->store(` on names declared
// DataManager in the same file (atomics' .store() stays invisible because
// their names are never declared DataManager).

/// Every name `line` declares as a DataManager (optionally `dtm::`, a
/// reference or a pointer): `DataManager name`, `DataManager& name`, ...,
/// then one of `;{=(,)`.
void datamanager_decls(const std::string& line,
                       std::set<std::string>& names) {
  for (std::size_t i = line.find("DataManager"); i != std::string::npos;
       i = line.find("DataManager", i + 1)) {
    if (!word_starts(line, i)) continue;
    std::size_t j = skip_spaces(line, i + 11);
    std::size_t name_begin = j;
    if (j < line.size() && (line[j] == '&' || line[j] == '*')) {
      name_begin = skip_spaces(line, j + 1);
      if (name_begin == j + 1) continue;
    } else if (j == i + 11) {
      continue;
    }
    const std::size_t name_end = identifier_end(line, name_begin);
    if (name_end == name_begin) continue;
    const std::size_t after = skip_spaces(line, name_end);
    if (after < line.size() &&
        std::string_view(";{=(,)").find(line[after]) != std::string::npos) {
      names.insert(line.substr(name_begin, name_end - name_begin));
    }
  }
}

std::set<std::string> collect_datamanager_names(const Prepared& file) {
  std::set<std::string> names;
  for (const std::string& line : file.lines) datamanager_decls(line, names);
  return names;
}

/// True iff `line` stores through `data_manager()` or a name in
/// `managers`: `data_manager().store(` or `name.store(` (or `->`).
bool datamanager_store(const std::string& line,
                       const std::set<std::string>& managers) {
  for (std::size_t i = line.find("store"); i != std::string::npos;
       i = line.find("store", i + 1)) {
    if (call_at(line, i, "store") == std::string::npos) continue;
    std::size_t op = i;
    while (op > 0 && std::isspace(static_cast<unsigned char>(line[op - 1]))) {
      --op;
    }
    if (op >= 1 && line[op - 1] == '.') {
      op -= 1;
    } else if (op >= 2 && line.compare(op - 2, 2, "->") == 0) {
      op -= 2;
    } else {
      continue;
    }
    std::size_t end = op;
    while (end > 0 && std::isspace(static_cast<unsigned char>(line[end - 1]))) {
      --end;
    }
    if (end > 0 && line[end - 1] == ')') {
      // data_manager ( ) before the operator.
      std::size_t open = end - 1;
      while (open > 0 &&
             std::isspace(static_cast<unsigned char>(line[open - 1]))) {
        --open;
      }
      if (open == 0 || line[open - 1] != '(') continue;
      --open;
      while (open > 0 &&
             std::isspace(static_cast<unsigned char>(line[open - 1]))) {
        --open;
      }
      if (open >= 12 && line.compare(open - 12, 12, "data_manager") == 0 &&
          word_starts(line, open - 12)) {
        return true;
      }
      continue;
    }
    std::size_t begin = end;
    while (begin > 0 && word_char(line[begin - 1])) --begin;
    if (begin < end && identifier_end(line, begin) == end &&
        managers.count(line.substr(begin, end - begin)) > 0) {
      return true;
    }
  }
  return false;
}

void check_dtm_store(const Prepared& file, std::vector<Finding>& findings) {
  if (in_dir(file, "/dtm/") || in_dir(file, "diet/sed.cpp")) return;
  const std::set<std::string> managers = collect_datamanager_names(file);
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (datamanager_store(file.lines[i], managers)) {
      report(file, i, "dtm-store",
             "direct DataManager::store outside src/dtm//src/diet/sed.cpp; "
             "route the write through the SED so the catalog is updated",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// hot-string: per-message std::string construction on the DES/message hot
// path. Every event and every message delivery runs through src/des/ and
// src/net/simenv.cpp; a std::to_string or literal concatenation there
// costs an allocation per event unless it sits in an obs::tracing()/
// obs::metrics_on() cold branch (a single relaxed atomic load when off) or
// is hoisted off the per-message path (then suppressed with a reason).

/// True iff `name ( )` occurs in `line` starting a word.
bool has_empty_call(const std::string& line, std::string_view name) {
  for (std::size_t i = line.find(name); i != std::string::npos;
       i = line.find(name, i + 1)) {
    if (word_starts(line, i) && empty_call_at(line, i, name)) return true;
  }
  return false;
}

/// True iff `line` calls std::to_string or applies `+` to a string
/// literal: `"` then `+`, or `+` then `"`, spaces allowed between.
bool builds_string(const std::string& line) {
  if (find_call(line, "std::to_string") != std::string::npos) return true;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char want = line[i] == '"' ? '+' : line[i] == '+' ? '"' : '\0';
    if (want == '\0') continue;
    const std::size_t j = skip_spaces(line, i + 1);
    if (j < line.size() && line[j] == want) return true;
  }
  return false;
}

void check_hot_string(const Prepared& file, std::vector<Finding>& findings) {
  if (!in_dir(file, "/des/") &&
      file.path.find("net/simenv.cpp") == std::string::npos) {
    return;
  }
  // strip() keeps the delimiting quotes of string literals, so a literal
  // operand of operator+ is visible as `" +` / `+ "`.

  // Brace-tracked guard scope: a line is "cold" when it sits inside a
  // block opened on a line that tests tracing()/metrics_on(), or tests one
  // itself (single-line `if (obs::tracing()) f(...)`).
  std::vector<char> brace_guard;  // per open brace: opened under a guard?
  std::size_t guarded_open = 0;   // braces currently open under a guard
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    const bool line_guard = has_empty_call(line, "tracing") ||
                            has_empty_call(line, "metrics_on");
    if (guarded_open == 0 && !line_guard && builds_string(line)) {
      report(file, i, "hot-string",
             "per-message string construction on the DES hot path; guard "
             "behind obs::tracing()/obs::metrics_on() or cache it off the "
             "per-event path",
             findings);
    }
    for (const char c : line) {
      if (c == '{') {
        const char g = (line_guard || guarded_open > 0) ? 1 : 0;
        brace_guard.push_back(g);
        guarded_open += g;
      } else if (c == '}') {
        if (!brace_guard.empty()) {
          guarded_open -= brace_guard.back();
          brace_guard.pop_back();
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// net-cost: direct Topology::transfer_time / bandwidth arithmetic outside
// the network and platform layers. Those formulas price a transfer on an
// idle network; any scheduler or subsystem computing its own byte costs
// from them silently ignores congestion once the flow model is on. The
// blessed entry point everywhere else is Env::estimate_transfer_s, which
// answers contention-aware when enabled and falls back to the closed form
// when not.

void check_net_cost(const Prepared& file, std::vector<Finding>& findings) {
  if (in_dir(file, "/net/") || in_dir(file, "/platform/")) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& line = file.lines[i];
    const std::size_t transfer = find_call(line, "transfer_time");
    const std::size_t bandwidth = find_call(line, "bandwidth");
    if (transfer != std::string::npos || bandwidth != std::string::npos) {
      report(file, i, "net-cost",
             std::string("direct ") +
                 (transfer < bandwidth ? "transfer_time" : "bandwidth") +
                 "() cost arithmetic outside src/net//src/platform; use "
                 "Env::estimate_transfer_s so congestion is priced in",
             findings);
    }
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names(std::begin(kRules),
                                              std::end(kRules));
  return names;
}

std::vector<Finding> lint(const std::vector<FileInput>& files) {
  std::vector<Finding> findings;
  std::vector<Prepared> prepared;
  prepared.reserve(files.size());
  for (const FileInput& input : files) {
    Prepared file;
    file.input = &input;
    file.path = normalize_path(input.path);
    file.lines = split_lines(strip(input.content));
    file.allow.resize(file.lines.size());
    collect_suppressions(split_lines(input.content), file, findings);
    prepared.push_back(std::move(file));
  }
  const std::set<std::string> status_fns = collect_status_returning(prepared);
  for (const Prepared& file : prepared) {
    check_rand(file, findings);
    check_wallclock(file, findings);
    check_thread(file, findings);
    check_unchecked_status(file, status_fns, findings);
    check_unordered_iter(file, findings);
    check_dtm_store(file, findings);
    check_hot_string(file, findings);
    check_mc_blocking(file, findings);
    check_net_cost(file, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::string format(const Finding& finding) {
  std::ostringstream out;
  out << finding.path << ":" << finding.line << ": " << finding.rule << ": "
      << finding.message;
  return out.str();
}

}  // namespace gclint
