#include "mw/message_manager.hpp"

#include <cassert>

#include "util/codec.hpp"

namespace sos::mw {

MessageManager::MessageManager(AdHocManager& adhoc, NodeStats& stats,
                               std::size_t store_capacity)
    : adhoc_(adhoc), stats_(stats), store_(store_capacity) {
  // Own certificate is always available to forward.
  remember_certificate(adhoc_.credentials().certificate);

  adhoc_.on_peer_advert = [this](sim::PeerId peer, const Advert::Entries& advert) {
    if (on_peer_advert) on_peer_advert(peer, advert);
  };
  adhoc_.on_secure_session = [this](sim::PeerId peer, const pki::Certificate& cert) {
    remember_certificate(cert);
    if (on_session_ready) on_session_ready(peer, cert.subject_id);
  };
  adhoc_.on_session_down = [this](sim::PeerId peer) {
    auto it = sent_this_session_.find(peer);
    if (it != sent_this_session_.end()) {
      // The connection broke while this session had transfers: whatever the
      // peer did not confirm through its next summary will be re-offered.
      if (!it->second.empty()) ++stats_.transfers_interrupted;
      sent_this_session_.erase(it);
    }
    if (on_session_down) on_session_down(peer);
  };
  adhoc_.on_frame = [this](sim::PeerId peer, FrameType type, util::Bytes payload) {
    handle_frame(peer, type, std::move(payload));
  };
}

MessageManager::~MessageManager() {
  adhoc_.on_peer_advert = nullptr;
  adhoc_.on_secure_session = nullptr;
  adhoc_.on_session_down = nullptr;
  adhoc_.on_frame = nullptr;
}

void MessageManager::reset_after_reboot(bool lose_store) {
  sent_this_session_.clear();
  cert_cache_.clear();
  remember_certificate(adhoc_.credentials().certificate);
  if (lose_store) store_.clear();
}

void MessageManager::save_state(util::Writer& w, bundle::RecordTable& records) const {
  // Quiescent-cut contract: no live sessions means no per-session transfer
  // bookkeeping.
  assert(sent_this_session_.empty());
  w.framed([&](util::Writer& sub) { store_.save_state(sub, records); });
  // Keys are re-derived from each certificate's subject id on load.
  w.varint(cert_cache_.size());
  for (const auto& [uid, cert] : cert_cache_) records.put(w, cert);
}

bool MessageManager::load_state(util::Reader& r, const bundle::RecordTable& records) {
  assert(!adhoc_.attached());
  bundle::BundleStore store(store_.capacity());
  {
    util::Reader sub = r.framed();
    if (!r.ok() || !store.load_state(sub, records) || !sub.done()) return false;
  }
  std::uint64_t n = r.count();
  std::map<pki::UserId, pki::Certificate> certs;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const pki::Certificate* cert = records.cert(r);
    if (!r.ok()) return false;
    certs.emplace(cert->subject_id, *cert);
  }
  if (!r.ok()) return false;
  store_ = std::move(store);
  cert_cache_ = std::move(certs);
  return true;
}

void MessageManager::remember_certificate(const pki::Certificate& cert) {
  cert_cache_[cert.subject_id] = cert;
}

const pki::Certificate* MessageManager::certificate_for(const pki::UserId& uid) const {
  auto it = cert_cache_.find(uid);
  return it == cert_cache_.end() ? nullptr : &it->second;
}

void MessageManager::send_summary(std::span<const sim::PeerId> peers,
                                  const SummaryFrame& summary) {
  if (peers.empty()) return;
  const util::Bytes encoded = summary.encode();
  for (sim::PeerId peer : peers) adhoc_.send_frame(peer, FrameType::Summary, encoded);
}

void MessageManager::send_request(sim::PeerId peer, const RequestFrame& request) {
  adhoc_.send_frame(peer, FrameType::Request, request.encode());
}

bool MessageManager::send_bundle(sim::PeerId peer, const bundle::Bundle& b,
                                 std::uint32_t spray_copies) {
  const pki::Certificate* cert = certificate_for(b.origin);
  if (cert == nullptr) return false;
  const BundleDataRef frame{b, *cert, spray_copies};
  util::Sizer size;
  util::put(size, frame);
  adhoc_.send_frame(peer, FrameType::BundleData, size.size(),
                    [&frame](util::Writer& w) { util::put(w, frame); });
  sent_this_session_[peer].insert(b.id());
  ++stats_.bundles_sent;
  return true;
}

const std::set<bundle::BundleId>& MessageManager::sent_to(sim::PeerId peer) const {
  static const std::set<bundle::BundleId> kNone;
  auto it = sent_this_session_.find(peer);
  return it == sent_this_session_.end() ? kNone : it->second;
}

void MessageManager::handle_frame(sim::PeerId peer, FrameType type, util::Bytes payload) {
  switch (type) {
    case FrameType::Summary: {
      auto f = SummaryFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      if (on_summary) on_summary(peer, std::move(*f));
      return;
    }
    case FrameType::Request: {
      auto f = RequestFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      if (on_request) on_request(peer, *f);
      return;
    }
    case FrameType::BundleData: {
      auto f = BundleDataFrame::decode(payload);
      if (!f) {
        ++stats_.malformed_frames;
        return;
      }
      auto b = bundle::Bundle::decode(f->bundle);
      auto cert = pki::Certificate::decode(f->origin_cert);
      if (!b || !cert) {
        ++stats_.malformed_frames;
        return;
      }
      ++stats_.bundles_received;
      // Security gate: certificate chain + identity binding + signature.
      if (!adhoc_.verify_bundle(*b, *cert)) return;
      remember_certificate(*cert);
      if (on_bundle) on_bundle(peer, std::move(*b), *cert, f->spray_copies);
      return;
    }
    case FrameType::Hello:
    case FrameType::Resume:
      // Hello/Resume are consumed inside the ad hoc manager; seeing one
      // here means a peer sealed a handshake frame inside the session —
      // treat as malformed.
      ++stats_.malformed_frames;
      return;
  }
  ++stats_.malformed_frames;
}

}  // namespace sos::mw
