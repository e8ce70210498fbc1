// AlleyOop Social data records carried as bundle payloads: posts and the
// follow/unfollow control actions §V lists ("whenever a user creates a
// message or performs an action such as follow/unfollow ... saves the
// action to the local database and synchronizes with the cloud when the
// Internet becomes available").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pki/identity.hpp"
#include "util/bytes.hpp"
#include "util/codec.hpp"
#include "util/time.hpp"

namespace sos::alleyoop {

struct Post {
  pki::UserId author;
  std::string author_name;
  std::uint32_t msg_num = 0;
  util::SimTime created_at = 0;
  std::string text;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.author, s.author_name, s.msg_num, s.created_at, s.text);
  }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<Post> decode(util::ByteView data) { return util::decode<Post>(data); }
};

enum class ActionKind : std::uint8_t { Follow = 0, Unfollow = 1 };

struct SocialAction {
  ActionKind kind = ActionKind::Follow;
  pki::UserId actor;
  pki::UserId target;
  util::SimTime at = 0;

  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(util::enum_u8(s.kind, ActionKind::Unfollow), s.actor, s.target, s.at);
  }

  util::Bytes encode() const { return util::encode(*this); }
  static std::optional<SocialAction> decode(util::ByteView data) {
    return util::decode<SocialAction>(data);
  }
};

}  // namespace sos::alleyoop
