// Versioned checkpoint format and on-disk store for the soak harness.
//
// A checkpoint captures a ReplaySession at a globally quiescent cut: the
// serialized fleet state (exactly the detach/attach inventory each SosNode
// already enumerates — bundle store, resumption cache, verify/advert
// caches, routing tables, stats, pending absolute timer deadlines, per-node
// DRBG streams), the cut's sim time, and the merged partial metrics.
//
// Wire layout (all integers in the codec's standard encodings):
//
//   magic   "SOSCKPT\0"                      8 bytes
//   version u32                              rejected unless the supported one
//   digest  raw 32 bytes                     world identity (config + trace)
//   segment u64                              segments completed so far
//   simtime f64                              the cut
//   payload varint-length byte string        ReplaySession::save_state blob
//   hash    raw 32 bytes                     SHA-256 over everything above
//
// Every rejection happens at decode, before any node state is touched: a
// truncated, corrupted, other-versioned or wrong-world checkpoint never
// partially restores a fleet.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "deploy/scenario.hpp"
#include "util/bytes.hpp"

namespace sos::soak {

/// Version 2 added the record table ahead of the fleet state (see
/// bundle/records.hpp). Version 3 dropped the message manager's verify-flush
/// deadline and two batch-verify counters from each node's state. Older
/// payloads are refused, not parsed.
inline constexpr std::uint32_t kCheckpointVersion = 3;

struct Checkpoint {
  std::uint64_t segment = 0;  // quiescent segments completed before the cut
  double sim_time = 0;        // the cut, in sim seconds
  std::array<std::uint8_t, 32> world_digest{};
  util::Bytes payload;        // ReplaySession::save_state blob

  /// Layout after the magic and version (see the table above).
  template <class S, class F>
  static void fields(S& s, F&& f) {
    f(s.world_digest, s.segment, s.sim_time, s.payload);
  }
};

/// Identity digest of the (config, world) pair a checkpoint belongs to:
/// the config fields a resumed run depends on (scale, seed, scheme,
/// workload, middleware knobs, radio link, fault plan, posting window,
/// social-graph override) plus every recorded contact. Resuming against a
/// different scenario is rejected by comparing this.
std::array<std::uint8_t, 32> world_digest(const deploy::ScenarioConfig& config,
                                          const deploy::ScenarioWorld& world);

util::Bytes encode_checkpoint(const Checkpoint& c);

/// Decode + validate. nullopt on any malformation, with a human-pointed
/// diagnostic in *error (wrong magic, another version, truncation, integrity
/// mismatch, trailing bytes).
std::optional<Checkpoint> decode_checkpoint(util::ByteView data, std::string* error);

/// Directory of numbered checkpoint files (ckpt-<segment>.bin), written
/// atomically (temp file + rename) so a crash mid-save never leaves a
/// half-written latest checkpoint.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Write ckpt-<segment>.bin atomically; false (with *error) on I/O failure.
  bool save(const Checkpoint& c, std::string* error) const;

  /// Load and validate one file.
  std::optional<Checkpoint> load_file(const std::string& path, std::string* error) const;

  /// Load the highest-segment valid checkpoint in the directory; nullopt
  /// (with *error) when none exists or the newest fails validation.
  std::optional<Checkpoint> load_latest(std::string* error) const;

 private:
  std::string dir_;
};

}  // namespace sos::soak
