// Common small value types shared across the library.
#ifndef JAVER_BASE_STATUS_H
#define JAVER_BASE_STATUS_H

#include <cstdint>
#include <string>

namespace javer {

// Three-valued latch reset value: X leaves the latch's initial value free.
enum class Ternary : std::uint8_t { False = 0, True = 1, X = 2 };

inline const char* to_string(Ternary t) {
  switch (t) {
    case Ternary::False: return "0";
    case Ternary::True: return "1";
    default: return "x";
  }
}

// Outcome of checking one property with one engine.
enum class CheckStatus : std::uint8_t {
  Holds,    // property proven (an inductive invariant exists)
  Fails,    // counterexample found
  Unknown,  // resource limit reached before an answer
};

inline const char* to_string(CheckStatus s) {
  switch (s) {
    case CheckStatus::Holds: return "holds";
    case CheckStatus::Fails: return "fails";
    default: return "unknown";
  }
}

}  // namespace javer

#endif  // JAVER_BASE_STATUS_H
