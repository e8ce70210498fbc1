#include "alleyoop/local_db.hpp"

#include <algorithm>

#include "util/codec.hpp"

namespace sos::alleyoop {

bool LocalDb::put_post(const Post& post) {
  return posts_.emplace(std::pair{post.author, post.msg_num}, post).second;
}

bool LocalDb::has_post(const pki::UserId& author, std::uint32_t msg_num) const {
  return posts_.count({author, msg_num}) > 0;
}

std::optional<Post> LocalDb::get_post(const pki::UserId& author, std::uint32_t msg_num) const {
  auto it = posts_.find({author, msg_num});
  if (it == posts_.end()) return std::nullopt;
  return it->second;
}

void LocalDb::put_action(const SocialAction& action) {
  actions_.push_back(action);
}

std::vector<Post> LocalDb::timeline() const {
  std::vector<Post> out;
  out.reserve(posts_.size());
  for (const auto& [key, post] : posts_) out.push_back(post);
  std::sort(out.begin(), out.end(),
            [](const Post& a, const Post& b) { return a.created_at > b.created_at; });
  return out;
}

std::vector<Post> LocalDb::posts_by(const pki::UserId& author) const {
  std::vector<Post> out;
  for (auto it = posts_.lower_bound({author, 0}); it != posts_.end(); ++it) {
    if (!(it->first.first == author)) break;
    out.push_back(it->second);
  }
  return out;
}

std::set<pki::UserId> LocalDb::following_of(const pki::UserId& user) const {
  std::set<pki::UserId> out;
  for (const auto& a : actions_) {
    if (!(a.actor == user)) continue;
    if (a.kind == ActionKind::Follow)
      out.insert(a.target);
    else
      out.erase(a.target);
  }
  return out;
}

void LocalDb::mark_local_post(const pki::UserId& author, std::uint32_t msg_num) {
  pending_posts_.insert({author, msg_num});
}

std::vector<Post> LocalDb::take_pending_posts() {
  std::vector<Post> out;
  for (const auto& key : pending_posts_) {
    auto it = posts_.find(key);
    if (it != posts_.end()) out.push_back(it->second);
  }
  pending_posts_.clear();
  return out;
}

namespace {
constexpr std::string_view kSnapshotTag = "alleyoop-db-v1";
constexpr std::uint64_t kMaxRecords = 10'000'000;
}  // namespace

util::Bytes LocalDb::serialize() const {
  util::Writer w;
  w.str(kSnapshotTag);
  w.varint(posts_.size());
  for (const auto& [key, post] : posts_) util::put(w, util::framed(post));
  w.varint(actions_.size());
  for (const auto& a : actions_) util::put(w, util::framed(a));
  util::put(w, pending_posts_);
  return w.take();
}

std::optional<LocalDb> LocalDb::deserialize(util::ByteView data) {
  util::Reader r(data);
  if (r.str() != kSnapshotTag) return std::nullopt;
  LocalDb db;
  std::uint64_t n = r.count(kMaxRecords);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    Post post;
    util::get(r, util::framed(post));
    if (r.ok()) db.put_post(post);
  }
  std::uint64_t m = r.count(kMaxRecords);
  for (std::uint64_t i = 0; i < m && r.ok(); ++i) {
    SocialAction action;
    util::get(r, util::framed(action));
    if (r.ok()) db.put_action(action);
  }
  util::get(r, util::bounded(db.pending_posts_, kMaxRecords));
  if (!r.done()) return std::nullopt;
  return db;
}

}  // namespace sos::alleyoop
