// User identity: the paper's "10 byte unique user identification string"
// that keys discovery-info dictionaries and binds certificates to users.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.hpp"

namespace sos::pki {

constexpr std::size_t kUserIdSize = 10;

struct UserId {
  std::array<std::uint8_t, kUserIdSize> bytes{};

  auto operator<=>(const UserId&) const = default;

  /// 16-character base32 rendering; used as the discovery-dictionary key.
  std::string to_string() const;
  static std::optional<UserId> from_string(const std::string& s);

  util::ByteView view() const { return util::ByteView(bytes.data(), bytes.size()); }
  bool is_zero() const;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.bytes);
  }
};

/// Deterministically derive a user id from an account name (first 10 bytes
/// of SHA-256). Real deployments would allocate ids server-side; a hash
/// keeps simulated ids stable across runs and collision-free in practice.
UserId user_id_from_name(const std::string& account_name);

}  // namespace sos::pki
