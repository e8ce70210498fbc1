#include "crypto/verify_memo.hpp"

#include <cstring>

#include "crypto/sha256.hpp"

namespace sos::crypto {

VerifyMemo::VerifyMemo(std::size_t max_entries)
    : per_shard_cap_(max_entries / kShards > 0 ? max_entries / kShards : 1) {}

VerifyMemo::Key VerifyMemo::key_of(const EdPublicKey& pub, util::ByteView msg,
                                   const EdSignature& sig) {
  // pub and sig are fixed-size, so the concatenation is unambiguous.
  Sha256 h;
  h.update(util::ByteView(pub.data(), pub.size()));
  h.update(msg);
  h.update(util::ByteView(sig.data(), sig.size()));
  return h.finish();
}

bool VerifyMemo::verify(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig) {
  Key key = key_of(pub, msg, sig);
  Shard& s = shard(key);
  {
    util::MutexLock lock(s.mu);
    auto it = s.verdicts.find(key);
    if (it != s.verdicts.end()) return it->second;
  }
  // Compute outside the lock: the verdict is a pure function of the triple,
  // so two threads racing on the same key store the same value.
  bool ok = ed25519_verify(pub, msg, sig);
  util::MutexLock lock(s.mu);
  if (s.verdicts.size() < per_shard_cap_) s.verdicts.emplace(key, ok);
  return ok;
}

std::optional<bool> VerifyMemo::lookup(const Key& key) const {
  const Shard& s = shard(key);
  util::MutexLock lock(s.mu);
  auto it = s.verdicts.find(key);
  if (it == s.verdicts.end()) return std::nullopt;
  return it->second;
}

std::size_t VerifyMemo::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    util::MutexLock lock(s.mu);
    n += s.verdicts.size();
  }
  return n;
}

}  // namespace sos::crypto
