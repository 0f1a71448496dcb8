// gclint: a dependency-free determinism/correctness linter for this repo.
//
// The codebase promises bit-reproducible simulations; that promise is easy
// to break with one innocent call (`std::rand`, a wall-clock read in the
// sim path, an unordered-container iteration feeding a hash). Full
// libclang tooling is unavailable in the build image, so this linter works
// on tokens and hand-written line patterns over comment- and
// string-stripped source. It is deliberately heuristic: rules aim for
// zero false negatives on the patterns we care about and rely on the
// suppression syntax below for the rare justified use.
//
// Suppressions (checked against the known rule list):
//   // gclint: allow(rule[, rule...]) <reason>      same line, or the
//       line below when the directive stands alone on its own line
//   // gclint: allow-file(rule[, rule...]) <reason> whole file
//
// Rules:
//   rand             std::rand/srand/std::random_device outside common/rng
//   wallclock        wall-clock reads in sim-path code (des/net/diet/ramses)
//   thread           raw std::thread outside src/parallel
//   unchecked-status calling a Status/Result-returning function and
//                    discarding the result
//   unordered-iter   iterating an unordered container into serialized,
//                    hashed, or streamed output
//   dtm-store        direct DataManager::store outside src/dtm/ or
//                    src/diet/sed.cpp (bypasses the replica catalog)
//   hot-string       per-message std::string construction (std::to_string,
//                    operator+ on a string literal) in the DES/message hot
//                    path (src/des/, src/net/simenv.cpp) outside an
//                    obs::tracing()/obs::metrics_on() cold branch — label
//                    and trace names must be built lazily or cached, never
//                    per event/message
//   mc-blocking      wall-clock sleeps (sleep_for/sleep_until) or
//                    unbounded blocking (cv/future .wait(), future .get(),
//                    semaphore .acquire()) in src/diet/ or src/dtm/ — the
//                    model checker (src/mc) drives those layers one
//                    dispatch at a time on a virtual clock and cannot
//                    explore past a host-time wait
#pragma once

#include <string>
#include <vector>

namespace gclint {

/// One source file handed to the linter. `path` drives per-directory rule
/// scoping (forward slashes; relative or absolute both work).
struct FileInput {
  std::string path;
  std::string content;
};

struct Finding {
  std::string path;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Names of every rule the linter knows (suppression directives naming
/// anything else are themselves reported, as rule "directive").
const std::vector<std::string>& rule_names();

/// Lints the files as one set. The unchecked-status rule collects
/// Status-returning function names across all inputs, so pass the whole
/// source tree together for best coverage.
std::vector<Finding> lint(const std::vector<FileInput>& files);

/// "path:line: rule: message" — clickable in most editors.
std::string format(const Finding& finding);

}  // namespace gclint
