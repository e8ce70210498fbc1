#include "probes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "bundle/bundle.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/verify_memo.hpp"
#include "crypto/x25519.hpp"
#include "mw/sos_node.hpp"
#include "pki/bootstrap.hpp"

namespace sosbench {

namespace {

constexpr std::size_t kMaxSample = 256;
constexpr int kBatches = 5;

/// Median per-operation seconds of `op(i)` over kBatches passes of i in
/// [0, n), after one warm-up pass.
template <class Op>
double per_op_s(std::size_t n, Op&& op) {
  for (std::size_t i = 0; i < n; ++i) op(i);
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) op(i);
    per_op.push_back(seconds_between(t0, Clock::now()) / static_cast<double>(n));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

struct Sample {
  std::vector<sos::bundle::Bundle> bundles;
  std::vector<sos::crypto::EdPublicKey> origin_keys;
  std::vector<sos::util::Bytes> signed_bytes;
  std::vector<sos::util::Bytes> encoded;
};

Sample collect(Replay& r) {
  sos::deploy::ReplaySession& s = *r.session;
  std::map<sos::pki::UserId, sos::crypto::EdPublicKey> keys;
  for (std::size_t i = 0; i < s.node_count(); ++i)
    keys[s.node(i).user_id()] = s.node(i).credentials().certificate.subject_key;
  Sample out;
  std::set<sos::bundle::BundleId> seen;
  for (std::size_t i = 0; i < s.node_count() && out.bundles.size() < kMaxSample; ++i) {
    for (const sos::bundle::StoredBundle* stored : s.node(i).store().all()) {
      if (out.bundles.size() >= kMaxSample) break;
      const sos::bundle::Bundle& b = stored->bundle;
      auto key = keys.find(b.origin);
      if (key == keys.end() || !seen.insert(b.id()).second) continue;
      out.bundles.push_back(b);
      out.origin_keys.push_back(key->second);
      out.signed_bytes.push_back(b.signing_bytes());
      out.encoded.push_back(b.encode());
    }
  }
  if (out.bundles.empty()) throw std::runtime_error("no resident bundle to probe");
  return out;
}

}  // namespace

OpCosts probe_costs(Replay& r, int parent) {
  Tracer& t = r.tracer;
  OpCosts c;
  Sample sample = collect(r);
  const std::size_t n = sample.bundles.size();
  c.sample_bundles = n;
  std::size_t bytes = 0;
  for (const auto& e : sample.encoded) bytes += e.size();
  c.sample_mean_bytes = static_cast<double>(bytes) / static_cast<double>(n);
  std::uint64_t sink = 0;

  {
    SpanScope s(t, "crypto.ed25519_verify", parent);
    c.ed25519_verify_s = per_op_s(n, [&](std::size_t i) {
      sink += sos::crypto::ed25519_verify(sample.origin_keys[i], sample.signed_bytes[i],
                                          sample.bundles[i].signature);
    });
  }
  {
    SpanScope s(t, "crypto.ed25519_sign", parent);
    const sos::crypto::Ed25519Keypair& keys = r.session->node(0).credentials().signing_keypair;
    c.ed25519_sign_s =
        per_op_s(n, [&](std::size_t i) { sink += keys.sign(sample.signed_bytes[i])[0]; });
  }
  {
    SpanScope s(t, "crypto.VerifyMemo::key_of", parent);
    c.memo_key_of_s = per_op_s(n, [&](std::size_t i) {
      sink += sos::crypto::VerifyMemo::key_of(sample.origin_keys[i], sample.signed_bytes[i],
                                              sample.bundles[i].signature)[0];
    });
  }
  {
    SpanScope s(t, "crypto.x25519", parent);
    sos::deploy::ReplaySession& session = *r.session;
    const std::size_t nodes = session.node_count();
    c.x25519_s = per_op_s(nodes, [&](std::size_t i) {
      const auto& mine = session.node(i).credentials();
      const auto& peer = session.node((i + 1) % nodes).credentials();
      sink += sos::crypto::x25519(mine.enc_private_key, peer.enc_public_key)[0];
    });
  }
  {
    SpanScope s(t, "crypto.aead", parent);
    std::uint8_t key[sos::crypto::kAeadKeySize];
    std::uint8_t nonce[sos::crypto::kAeadNonceSize] = {};
    for (std::size_t i = 0; i < sizeof(key); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 1);
    std::vector<sos::util::Bytes> sealed(n);
    double seal = per_op_s(n, [&](std::size_t i) {
      sealed[i] = sos::crypto::aead_seal(key, nonce, {}, sample.encoded[i]);
    });
    double open = per_op_s(n, [&](std::size_t i) {
      auto plain = sos::crypto::aead_open(key, nonce, {}, sealed[i]);
      sink += plain ? plain->size() : 0;
    });
    c.aead_s_per_byte = (seal + open) / 2.0 / c.sample_mean_bytes;
  }
  {
    SpanScope s(t, "bundle.encode", parent);
    c.bundle_encode_s =
        per_op_s(n, [&](std::size_t i) { sink += sample.bundles[i].encode().size(); });
  }
  {
    SpanScope s(t, "bundle.decode", parent);
    c.bundle_decode_s = per_op_s(n, [&](std::size_t i) {
      auto b = sos::bundle::Bundle::decode(sample.encoded[i]);
      sink += b ? b->msg_num : 0;
    });
  }
  {
    SpanScope s(t, "pki.signup", parent);
    sos::pki::BootstrapService infra(sos::util::to_bytes("sosbench-probe-infra"));
    std::vector<sos::crypto::Drbg> devices;
    for (std::size_t i = 0; i < 8; ++i)
      devices.emplace_back(sos::util::to_bytes("sosbench-probe-device-" + std::to_string(i)));
    std::size_t account = 0;
    c.pki_signup_s = per_op_s(devices.size(), [&](std::size_t i) {
      auto creds = infra.signup("probe" + std::to_string(account++), devices[i], 0.0);
      sink += creds ? 1 : 0;
    });
  }
  c.checksum = sink;
  return c;
}

}  // namespace sosbench
