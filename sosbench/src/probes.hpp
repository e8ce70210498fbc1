// Per-operation cost probes, run after the traced replay on the workload's
// own data: the bundles resident in the node stores, the nodes' keys and
// certificates. The costs turn the run's operation counts into the
// per-layer time estimates (the *_est_s metrics).
#pragma once

#include <cstddef>
#include <cstdint>

#include "replay_run.hpp"

namespace sosbench {

struct OpCosts {
  double ed25519_verify_s = 0;  // per verification
  double ed25519_sign_s = 0;    // per signature
  double x25519_s = 0;          // per scalar multiplication
  double aead_s_per_byte = 0;   // ChaCha20-Poly1305, mean of seal and open
  double memo_key_of_s = 0;     // per VerifyMemo::key_of
  double bundle_encode_s = 0;   // per Bundle::encode
  double bundle_decode_s = 0;   // per Bundle::decode
  double pki_signup_s = 0;      // per BootstrapService::signup
  std::size_t sample_bundles = 0;
  double sample_mean_bytes = 0;  // mean encoded size of the sample
  std::uint64_t checksum = 0;    // folds the probed results so no call is elided
};

/// Probe every cost on `r`'s end state; each probe is a span under `parent`.
OpCosts probe_costs(Replay& r, int parent);

}  // namespace sosbench
