#pragma once

// Token amounts as exact integers.
//
// All channel balances, HTLC locks and payment values are held in
// milli-tokens (1 token = 1000 mtok) so that funds-conservation invariants
// can be asserted with exact equality; floating point is used only for
// fluid quantities (rates, prices) as in the paper's eqs. (21)-(28).

#include <cstdint>
#include <string>

namespace splicer::common {

/// Milli-tokens. Signed so that deltas/fees can be expressed, but network
/// state must never hold a negative amount (checked in pcn::Channel).
using Amount = std::int64_t;

inline constexpr Amount kMilliPerToken = 1000;

[[nodiscard]] constexpr Amount tokens(double t) noexcept {
  // Round-half-away-from-zero to the nearest milli-token.
  const double scaled = t * static_cast<double>(kMilliPerToken);
  return static_cast<Amount>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5);
}

/// Whether tokens(t) is defined: t is finite and, scaled and rounded,
/// within Amount's range (the integer conversion is undefined otherwise).
[[nodiscard]] constexpr bool representable_tokens(double t) noexcept {
  const double scaled = t * static_cast<double>(kMilliPerToken);
  return scaled + 0.5 < 0x1p63 && scaled - 0.5 > -0x1p63;
}

[[nodiscard]] constexpr Amount whole_tokens(std::int64_t t) noexcept {
  return t * kMilliPerToken;
}

[[nodiscard]] constexpr double to_tokens(Amount a) noexcept {
  return static_cast<double>(a) / static_cast<double>(kMilliPerToken);
}

[[nodiscard]] inline std::string amount_to_string(Amount a) {
  const Amount whole = a / kMilliPerToken;
  const Amount frac = (a < 0 ? -a : a) % kMilliPerToken;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld", static_cast<long long>(whole),
                static_cast<long long>(frac));
  return buf;
}

}  // namespace splicer::common
