// VerifyMemo: a cross-node memo of Ed25519 verification verdicts for
// deterministic replay engines. In a scenario replay every node re-verifies
// the same (public key, message, signature) triples — each distinct bundle
// and certificate is checked once per carrying node — yet the verdict is a
// pure function of the triple. Sharing one memo across all simulated nodes
// (and across strand worker threads) collapses that redundancy without
// changing any simulated metric: per-node counters still record the checks
// the real device would perform; only the simulator skips recomputing the
// curve math. Safe under concurrency because a late writer stores the same
// verdict an earlier writer did.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>

#include "crypto/ed25519.hpp"
#include "util/mutex.hpp"

namespace sos::crypto {

class VerifyMemo {
 public:
  /// `max_entries` bounds how many verdicts the memo will hold in total
  /// (rounded down to a per-shard quota, at least one per shard): past the
  /// bound new verdicts are computed but not stored, so a memo scoped to a
  /// whole sweep cell can never grow unbounded. The default comfortably
  /// covers every distinct signature a multi-variant cell produces.
  explicit VerifyMemo(std::size_t max_entries = kShards * kDefaultShardCap);
  VerifyMemo(const VerifyMemo&) = delete;
  VerifyMemo& operator=(const VerifyMemo&) = delete;

  using Key = std::array<std::uint8_t, 32>;  // SHA-256 of pub || msg || sig
  static Key key_of(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig);

  /// Memoized ed25519_verify(pub, msg, sig): computes the verdict on first
  /// sight of the triple, returns the stored verdict afterwards.
  bool verify(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig);

  /// Stored verdict for a triple, if any (nullopt = not yet computed).
  std::optional<bool> lookup(const Key& key) const;

  std::size_t size() const;
  /// Total verdicts this memo will store before it stops inserting.
  std::size_t capacity() const { return per_shard_cap_ * kShards; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h;
      std::memcpy(&h, k.data(), sizeof(h));  // already uniform
      return h;
    }
  };
  struct Shard {
    mutable util::Mutex mu;
    // sos-lint audit (unordered-iteration): this map is lookup/insert only —
    // nothing iterates it, so hash order can never reach the metrics or
    // report bytes. size() sums bucket counts, which are order-independent.
    std::unordered_map<Key, bool, KeyHash> verdicts SOS_GUARDED_BY(mu);
  };

  Shard& shard(const Key& k) { return shards_[k[31] & (kShards - 1)]; }
  const Shard& shard(const Key& k) const { return shards_[k[31] & (kShards - 1)]; }

  // A replay holds a few thousand distinct signatures; past the bound the
  // memo stops inserting (reads keep working) rather than grow unbounded.
  static constexpr std::size_t kDefaultShardCap = 1 << 18;
  static constexpr std::size_t kShards = 16;  // power of two
  std::size_t per_shard_cap_ = kDefaultShardCap;
  Shard shards_[kShards];
};

}  // namespace sos::crypto
