#include "soak/checkpoint.hpp"

#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "crypto/sha256.hpp"
#include "util/codec.hpp"

namespace sos::soak {

namespace {
constexpr char kMagic[8] = {'S', 'O', 'S', 'C', 'K', 'P', 'T', '\0'};

void set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
}

// The segment of a file named exactly as save() names it: "ckpt-", the
// segment in plain decimal (ASCII digits, no sign, space or leading zero,
// fitting in u64), ".bin". Any other name is not a checkpoint of this store,
// so a stray "ckpt-3 copy.bin" cannot tie with ckpt-3.bin and "ckpt--1.bin"
// cannot parse as 2^64-1 and win every time.
std::optional<std::uint64_t> parse_segment(std::string_view name) {
  constexpr std::string_view kPrefix = "ckpt-";
  constexpr std::string_view kSuffix = ".bin";
  if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) return std::nullopt;
  std::string_view digits = name.substr(kPrefix.size());
  if (digits.size() < kSuffix.size()) return std::nullopt;
  digits.remove_suffix(kSuffix.size());
  if (digits.empty() || (digits.size() > 1 && digits.front() == '0')) return std::nullopt;
  std::uint64_t segment = 0;
  const char* end = digits.data() + digits.size();
  auto [ptr, ec] = std::from_chars(digits.data(), end, segment);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return segment;
}
}  // namespace

std::array<std::uint8_t, 32> world_digest(const deploy::ScenarioConfig& config,
                                          const deploy::ScenarioWorld& world) {
  util::Writer w;
  w.varint(config.nodes);
  w.f64(config.days);
  w.u64(config.seed);
  w.str(config.scheme);
  w.f64(config.total_posts_target);
  w.varint(config.communities);
  w.f64(config.bridge_node_frac);
  w.f64(config.resume_lifetime_s);
  w.f64(config.verify_batch_window_s);
  w.u8(config.verify_batch_adaptive ? 1 : 0);
  w.u8(config.verify_signatures ? 1 : 0);
  w.varint(config.store_capacity);
  w.varint(world.trace.size());
  for (const sim::ContactInterval& c : world.trace.contacts()) {
    w.f64(c.start);
    w.f64(c.end);
    w.u32(c.a);
    w.u32(c.b);
  }
  return crypto::Sha256::hash(util::ByteView(w.data()));
}

util::Bytes encode_checkpoint(const Checkpoint& c) {
  util::Writer w;
  w.raw(util::ByteView(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic)));
  w.u32(kCheckpointVersion);
  w.raw(util::ByteView(c.world_digest));
  w.u64(c.segment);
  w.f64(c.sim_time);
  w.bytes(util::ByteView(c.payload));
  crypto::Sha256::Digest hash = crypto::Sha256::hash(util::ByteView(w.data()));
  w.raw(util::ByteView(hash));
  return w.take();
}

std::optional<Checkpoint> decode_checkpoint(util::ByteView data, std::string* error) {
  constexpr std::size_t kHeader = sizeof(kMagic) + 4 + 32 + 8 + 8;
  constexpr std::size_t kHash = crypto::Sha256::kDigestSize;
  if (data.size() < kHeader + 1 + kHash) {
    set_error(error, "truncated checkpoint: " + std::to_string(data.size()) +
                         " bytes, header + hash need at least " +
                         std::to_string(kHeader + 1 + kHash));
    return std::nullopt;
  }
  // Integrity first: everything up to the trailing hash must match it, so a
  // flipped bit anywhere (including in the header fields we are about to
  // trust) is reported as corruption, not misparsed.
  util::ByteView body(data.data(), data.size() - kHash);
  util::ByteView stored_hash(data.data() + (data.size() - kHash), kHash);
  crypto::Sha256::Digest computed = crypto::Sha256::hash(body);
  if (!util::ct_equal(util::ByteView(computed), stored_hash)) {
    // Distinguish the two common operator mistakes before declaring rot:
    // a non-checkpoint file (bad magic) and a newer tool's file (version).
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
      set_error(error, "not a checkpoint file (bad magic)");
      return std::nullopt;
    }
    util::Reader probe(body);
    probe.raw(sizeof(kMagic));
    std::uint32_t version = probe.u32();
    if (probe.ok() && version > kCheckpointVersion) {
      set_error(error, "checkpoint format version " + std::to_string(version) +
                           " is newer than supported version " +
                           std::to_string(kCheckpointVersion));
      return std::nullopt;
    }
    set_error(error, "checkpoint integrity hash mismatch (truncated or corrupted file)");
    return std::nullopt;
  }
  util::Reader r(body);
  util::Bytes magic = r.raw(sizeof(kMagic));
  if (!r.ok() || std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    set_error(error, "not a checkpoint file (bad magic)");
    return std::nullopt;
  }
  std::uint32_t version = r.u32();
  if (r.ok() && version > kCheckpointVersion) {
    set_error(error, "checkpoint format version " + std::to_string(version) +
                         " is newer than supported version " +
                         std::to_string(kCheckpointVersion));
    return std::nullopt;
  }
  Checkpoint c;
  c.world_digest = r.raw_array<32>();
  c.segment = r.u64();
  c.sim_time = r.f64();
  c.payload = r.bytes();
  if (!r.ok()) {
    set_error(error, "malformed checkpoint body");
    return std::nullopt;
  }
  if (!r.done()) {
    set_error(error, "trailing bytes after checkpoint payload");
    return std::nullopt;
  }
  return c;
}

bool CheckpointStore::save(const Checkpoint& c, std::string* error) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  util::Bytes encoded = encode_checkpoint(c);
  fs::path final_path = fs::path(dir_) / ("ckpt-" + std::to_string(c.segment) + ".bin");
  fs::path tmp_path = final_path;
  tmp_path += ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      set_error(error, "cannot open " + tmp_path.string() + " for writing");
      return false;
    }
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out.good()) {
      set_error(error, "short write to " + tmp_path.string());
      return false;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    set_error(error, "rename to " + final_path.string() + " failed: " + ec.message());
    return false;
  }
  return true;
}

std::optional<Checkpoint> CheckpointStore::load_file(const std::string& path,
                                                     std::string* error) const {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    set_error(error, "cannot open " + path);
    return std::nullopt;
  }
  util::Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::string decode_error;
  auto c = decode_checkpoint(util::ByteView(data), &decode_error);
  if (!c) set_error(error, path + ": " + decode_error);
  return c;
}

std::optional<Checkpoint> CheckpointStore::load_latest(std::string* error) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::uint64_t best_segment = 0;
  std::string best_path;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::optional<std::uint64_t> segment = parse_segment(entry.path().filename().string());
    if (!segment) continue;
    if (best_path.empty() || *segment > best_segment) {
      best_segment = *segment;
      best_path = entry.path().string();
    }
  }
  if (ec) {
    set_error(error, "cannot list " + dir_ + ": " + ec.message());
    return std::nullopt;
  }
  if (best_path.empty()) {
    set_error(error, "no checkpoint files in " + dir_);
    return std::nullopt;
  }
  return load_file(best_path, error);
}

}  // namespace sos::soak
