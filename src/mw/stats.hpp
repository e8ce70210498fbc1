// Per-node counters surfaced by the middleware; the evaluation harness and
// the security tests read these. SOS_NODE_STATS, X(name) per counter, is the
// one list of them: it declares the members, and for_each_stat walks it for
// fleet aggregation, the checkpoint codec and the soak JSONL snapshot and
// stop predicates. Table order is checkpoint order: append, and bump
// kCheckpointVersion.
#pragma once

#include <cstdint>

namespace sos::mw {

#define SOS_NODE_STATS(X)                                                    \
  /* ad hoc manager */                                                       \
  X(sessions_established)     /* full handshakes + resumes */                \
  X(sessions_lost)                                                           \
  X(full_handshakes)          /* cert exchange + X25519 + HKDF */            \
  X(sessions_resumed)         /* 1-RTT resumes (no X25519) */                \
  X(resume_attempts)          /* Resume frames sent */                       \
  X(resume_rejected)          /* unknown/expired/bad-proof resumes */        \
  X(ecdh_ops)                 /* X25519 scalar mults by the handshake */     \
  X(handshake_cert_rejected)  /* invalid/revoked/expired cert */             \
  X(handshake_sig_rejected)   /* bad ephemeral-key binding */                \
  X(frames_sent)                                                             \
  X(frames_received)                                                         \
  X(decrypt_failures)                                                        \
  X(malformed_frames)                                                        \
  /* message manager / routing */                                            \
  X(bundles_sent)                                                            \
  X(bundles_received)                                                        \
  X(bundle_sig_rejected)                                                     \
  X(bundle_cert_rejected)                                                    \
  X(bundle_sig_cache_hits)    /* re-receptions skipping verify */            \
  X(bundle_sig_cache_misses)  /* full signature verifications */             \
  X(duplicates_ignored)                                                      \
  X(bundles_carried)          /* stored for forwarding */                    \
  X(deliveries)               /* handed to the application */                \
  X(transfers_interrupted)    /* queue dropped with the session */           \
  /* app layer */                                                            \
  X(published)                                                               \
  X(reboots)                  /* power cycles (fault-injection churn) */

struct NodeStats {
#define SOS_NODE_STATS_MEMBER(name) std::uint64_t name = 0;
  SOS_NODE_STATS(SOS_NODE_STATS_MEMBER)
#undef SOS_NODE_STATS_MEMBER

  /// Always 0: batch signature verification is gone and nothing counts
  /// these. They stay only because sosbench's fingerprint reads them, and
  /// sosbench changes only in its own PR (ROADMAP item 3, which deletes
  /// both). Not in SOS_NODE_STATS: never aggregated or checkpointed.
  static constexpr std::uint64_t bundle_batch_verifies = 0;
  static constexpr std::uint64_t bundle_batch_fallbacks = 0;

  bool operator==(const NodeStats&) const = default;
};

/// Calls f(name, s.<counter>...) for every counter in table order, over one
/// or more NodeStats side by side: f(name, a.x, b.x) combines two.
template <class F, class... S>
void for_each_stat(F&& f, S&... s) {
#define SOS_NODE_STATS_VISIT(name) f(#name, s.name...);
  SOS_NODE_STATS(SOS_NODE_STATS_VISIT)
#undef SOS_NODE_STATS_VISIT
}

inline NodeStats& operator+=(NodeStats& a, const NodeStats& b) {
  for_each_stat([](const char*, std::uint64_t& x, std::uint64_t y) { x += y; }, a, b);
  return a;
}

}  // namespace sos::mw
