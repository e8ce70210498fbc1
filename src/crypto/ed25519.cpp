#include "crypto/ed25519.hpp"

#include <cstring>
#include <memory>

#include "crypto/ge25519.hpp"
#include "crypto/sc25519.hpp"
#include "crypto/sha512.hpp"
#include "util/mutex.hpp"

namespace sos::crypto {

namespace {

std::array<std::uint8_t, 32> clamp(const std::uint8_t h[32]) {
  std::array<std::uint8_t, 32> s;
  std::memcpy(s.data(), h, 32);
  s[0] &= 248;
  s[31] &= 63;
  s[31] |= 64;
  return s;
}

// k = H(R || A || M) mod L, the Fiat-Shamir challenge of the scheme.
Scalar challenge(const std::uint8_t r_enc[32], const EdPublicKey& pub, util::ByteView msg) {
  Sha512 hk;
  hk.update(util::ByteView(r_enc, 32));
  hk.update(util::ByteView(pub.data(), pub.size()));
  hk.update(msg);
  auto k_hash = hk.finish();
  return sc_reduce64(k_hash.data());
}

// A public key ready for verification: its bytes (the cache tag) and the
// split tables of the decoded point.
struct PreparedKey {
  EdPublicKey pub;
  GeSplitTable table;
};

// nullptr for a key that names no point, encodes y >= p, or is small-order.
std::shared_ptr<const PreparedKey> prepare(const EdPublicKey& pub) {
  GeP3 a;
  if (!ge_frombytes(a, pub.data()) || ge_is_small_order(a)) return nullptr;
  auto key = std::make_shared<PreparedKey>();
  key->pub = pub;
  key->table = ge_split_table(a);
  return key;
}

// kEdPreparedKeySlots direct-mapped slots over mutex-guarded shards (slot i
// in shard i % kShards). A miss prepares outside the lock, then replaces
// whatever the slot held; verifiers hold a shared_ptr, so a replaced entry
// lives until the last verify using it returns. Keys that fail to prepare
// are never stored.
class PreparedKeyCache {
 public:
  std::shared_ptr<const PreparedKey> get(const EdPublicKey& pub) {
    const std::size_t slot = ed25519_prepared_slot(pub);
    Shard& shard = shards_[slot % kShards];
    {
      util::MutexLock lock(shard.mu);
      const auto& entry = shard.slots[slot / kShards];
      if (entry && entry->pub == pub) return entry;
    }
    std::shared_ptr<const PreparedKey> prepared = prepare(pub);
    if (!prepared) return nullptr;
    util::MutexLock lock(shard.mu);
    shard.slots[slot / kShards] = prepared;
    return prepared;
  }

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    util::Mutex mu;
    std::shared_ptr<const PreparedKey> slots[kEdPreparedKeySlots / kShards] SOS_GUARDED_BY(mu);
  };
  Shard shards_[kShards];
};

PreparedKeyCache& prepared_keys() {
  static PreparedKeyCache cache;
  return cache;
}

}  // namespace

Ed25519Keypair Ed25519Keypair::from_seed(const EdSeed& seed) {
  Ed25519Keypair kp;
  kp.seed_ = seed;
  auto h = Sha512::hash(util::ByteView(seed.data(), seed.size()));
  kp.scalar_ = clamp(h.data());
  std::memcpy(kp.prefix_.data(), h.data() + 32, 32);
  GeP3 a = ge_scalarmult_base(kp.scalar_.data());
  ge_tobytes(kp.pub_.data(), a);
  return kp;
}

EdSignature Ed25519Keypair::sign(util::ByteView msg) const {
  // r = H(prefix || M) mod L
  Sha512 hr;
  hr.update(util::ByteView(prefix_.data(), prefix_.size()));
  hr.update(msg);
  auto r_hash = hr.finish();
  Scalar r = sc_reduce64(r_hash.data());

  GeP3 rp = ge_scalarmult_base(r.data());
  EdSignature sig{};
  ge_tobytes(sig.data(), rp);

  Scalar k = challenge(sig.data(), pub_, msg);

  // S = (r + k * s) mod L
  Scalar s_scalar;
  std::memcpy(s_scalar.data(), scalar_.data(), 32);
  Scalar s = sc_muladd(k, s_scalar, r);
  std::memcpy(sig.data() + 32, s.data(), 32);
  return sig;
}

bool ed25519_verify(const EdPublicKey& pub, util::ByteView msg, const EdSignature& sig) {
  Scalar s;
  std::memcpy(s.data(), sig.data() + 32, 32);
  if (!sc_is_canonical(s)) return false;

  const std::shared_ptr<const PreparedKey> a = prepared_keys().get(pub);
  if (!a) return false;

  Scalar k = challenge(sig.data(), pub, msg);

  // enc(S*B - k*A) == R, computed in one split Straus pass.
  GeP3 r = ge_double_scalarmult_vartime(s.data(), a->table, k.data());
  std::uint8_t r_enc[32];
  ge_tobytes(r_enc, r);
  // sos-lint: allow(memcmp-public) both operands are public: the recomputed
  // point encoding and the signature's R half straight off the wire.
  return std::memcmp(r_enc, sig.data(), 32) == 0;
}

}  // namespace sos::crypto
