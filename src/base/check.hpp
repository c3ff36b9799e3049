// Precondition / invariant checking helpers (Core Guidelines I.6 / E.12).
//
// HALOTIS is a simulator, not a long-running service: on contract violation
// the most useful behaviour is to stop immediately with a precise message.
// `require` throws `halotis::ContractViolation` so tests can assert on
// misuse, while release builds keep the checks (they are cheap compared to
// event processing).
//
// A `require` message is the user's diagnostic, verbatim: input errors
// already name their file and line, so no C++ source location is appended
// (stderr must not depend on where the binary was built).  Where a message
// is costly to build -- a parser's per-line checks, the netlist's per-name
// checks -- pass a callable instead: it runs only when the check fails.
#pragma once

#include <concepts>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace halotis {

/// Thrown when a precondition or invariant documented in a function's
/// contract is violated by the caller.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Throws ContractViolation when `condition` is false.  `message` should
/// state the violated contract from the caller's point of view.
inline void require(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] throw ContractViolation(std::string(message));
}

/// Check-first form: `make_message()` (returning something a std::string
/// can be built from) is called only when `condition` is false, so a check
/// that passes costs one branch and formats nothing.
template <class MakeMessage>
  requires std::invocable<MakeMessage&>
inline void require(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]] throw ContractViolation(std::string(make_message()));
}

/// Internal-consistency variant of `require`: a failure is a bug in HALOTIS
/// itself rather than in the calling code, so the message carries the
/// failing check's source file (basename only) and line.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    std::string_view file = loc.file_name();
    file = file.substr(file.find_last_of('/') + 1);
    std::string what{message};
    what += " [";
    what += file;
    what += ':';
    what += std::to_string(loc.line());
    what += ']';
    throw ContractViolation(what);
  }
}

/// `ensure` for the event kernel's per-event inner loop, where the checks
/// sit between every pair of arena accesses: active in Debug builds (and
/// under the sanitizer CI tiers, which build Debug), compiled out in
/// Release.  Since the PR-5 hot-path rework the kernel processes an event
/// in a few hundred nanoseconds, so these dependent-load comparisons are no
/// longer noise there; every check still runs on the whole test suite in
/// Debug.  Use plain `ensure`/`require` everywhere else -- public API
/// contracts must throw in every build type.
#ifdef NDEBUG
inline void debug_ensure(bool, std::string_view) {}
#else
inline void debug_ensure(bool condition, std::string_view message,
                         std::source_location loc = std::source_location::current()) {
  ensure(condition, message, loc);
}
#endif

}  // namespace halotis
