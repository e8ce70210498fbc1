#include "sim/multipeer.hpp"

#include "sim/faults.hpp"

namespace sos::sim {

// --- MpcEndpoint -----------------------------------------------------------

void MpcEndpoint::start_advertising(DiscoveryInfo info) {
  info_ = std::move(info);
  if (advertising_) return;
  advertising_ = true;
  // Browsers already in range discover us now.
  for (PeerId other = 0; other < net_->node_count(); ++other) {
    if (other == id_ || !net_->in_range(id_, other)) continue;
    MpcEndpoint& peer = net_->endpoint(other);
    if (peer.browsing_ && peer.on_peer_found) {
      net_->scheduler().schedule_in(0, [&peer, me = id_, info = info_] {
        if (peer.on_peer_found) peer.on_peer_found(me, info);
      });
    }
  }
}

void MpcEndpoint::stop_advertising() {
  advertising_ = false;
}

void MpcEndpoint::update_discovery_info(DiscoveryInfo info) {
  info_ = std::move(info);
  if (!advertising_) return;
  for (PeerId other = 0; other < net_->node_count(); ++other) {
    if (other == id_ || !net_->in_range(id_, other)) continue;
    MpcEndpoint& peer = net_->endpoint(other);
    // Connected peers exchange state in-session; only browsers that have
    // not connected care about the refreshed advertisement.
    if (peer.browsing_ && !peer.is_connected(id_) && peer.on_peer_found) {
      net_->scheduler().schedule_in(0, [&peer, me = id_, info = info_] {
        if (peer.on_peer_found) peer.on_peer_found(me, info);
      });
    }
  }
}

void MpcEndpoint::start_browsing() {
  if (browsing_) return;
  browsing_ = true;
  for (PeerId other = 0; other < net_->node_count(); ++other) {
    if (other == id_ || !net_->in_range(id_, other)) continue;
    MpcEndpoint& peer = net_->endpoint(other);
    if (peer.advertising_ && on_peer_found) {
      net_->scheduler().schedule_in(0, [this, other, info = peer.info_] {
        if (on_peer_found) on_peer_found(other, info);
      });
    }
  }
}

void MpcEndpoint::stop_browsing() {
  browsing_ = false;
}

void MpcEndpoint::invite(PeerId peer) {
  net_->do_invite(id_, peer);
}

void MpcEndpoint::disconnect(PeerId peer) {
  net_->drop_session(id_, peer, true);
}

bool MpcEndpoint::is_connected(PeerId peer) const {
  auto it = net_->links_.find(MpcNetwork::norm(id_, peer));
  return it != net_->links_.end() && it->second.connected;
}

std::vector<PeerId> MpcEndpoint::connected_peers() const {
  std::vector<PeerId> out;
  for (PeerId other = 0; other < net_->node_count(); ++other)
    if (other != id_ && is_connected(other)) out.push_back(other);
  return out;
}

void MpcEndpoint::send(PeerId peer, util::Bytes frame) {
  net_->do_send(id_, peer, std::move(frame));
}

// --- MpcNetwork ---------------------------------------------------------------

MpcNetwork::MpcNetwork(Scheduler& sched, std::size_t nodes, RadioParams radio)
    : sched_(sched), radio_(radio), endpoints_(nodes) {
  for (std::size_t i = 0; i < nodes; ++i) {
    endpoints_[i].net_ = this;
    endpoints_[i].id_ = static_cast<PeerId>(i);
  }
}

void MpcNetwork::set_in_range(PeerId a, PeerId b, bool in_range) {
  auto key = norm(a, b);
  bool was = in_range_.count(key) > 0;
  if (in_range == was) return;
  if (in_range) {
    in_range_.insert(key);
    // Mutual discovery if roles match.
    auto notify = [this](MpcEndpoint& browser, MpcEndpoint& advertiser) {
      if (browser.browsing_ && advertiser.advertising_ && browser.on_peer_found) {
        sched_.schedule_in(0, [&browser, id = advertiser.id_, info = advertiser.info_] {
          if (browser.on_peer_found) browser.on_peer_found(id, info);
        });
      }
    };
    notify(endpoints_[a], endpoints_[b]);
    notify(endpoints_[b], endpoints_[a]);
  } else {
    in_range_.erase(key);
    drop_session(a, b, true);
    auto lost = [this](MpcEndpoint& browser, PeerId gone) {
      if (browser.browsing_ && browser.on_peer_lost) {
        sched_.schedule_in(0, [&browser, gone] {
          if (browser.on_peer_lost) browser.on_peer_lost(gone);
        });
      }
    };
    lost(endpoints_[a], b);
    lost(endpoints_[b], a);
  }
}

bool MpcNetwork::in_range(PeerId a, PeerId b) const {
  return in_range_.count(norm(a, b)) > 0;
}

void MpcNetwork::do_invite(PeerId from, PeerId to) {
  if (!in_range(from, to) || !endpoints_[to].advertising_) {
    ++failed_connections_;
    return;
  }
  if (link(from, to).connected) return;  // already up
  bool accepted = endpoints_[to].on_invitation ? endpoints_[to].on_invitation(from) : true;
  if (!accepted) {
    ++failed_connections_;
    return;
  }
  // Connection completes after the setup handshake. A range break before
  // then bumps the link generation (and counts the failure) at the break,
  // making this timer a pure no-op — so discarding it, as a task shard
  // does past its last contact end, changes nothing.
  Link& pending = link(from, to);
  ++pending.pending_setups;
  std::uint64_t generation = pending.generation;
  sched_.schedule_in(radio_.setup_time_s, [this, from, to, generation] {
    Link& l = link(from, to);
    if (l.generation != generation) return;  // range broke mid-setup; counted then
    --l.pending_setups;
    if (l.connected) return;  // the peer's parallel invite connected us first
    l.connected = true;
    l.busy_until = sched_.now();
    l.in_flight = 0;  // anything older was counted lost when the session dropped
    ++connections_;
    if (endpoints_[from].on_connected) endpoints_[from].on_connected(to);
    if (endpoints_[to].on_connected) endpoints_[to].on_connected(from);
  });
}

void MpcNetwork::do_send(PeerId from, PeerId to, util::Bytes frame) {
  Link& l = link(from, to);
  if (!l.connected) return;  // sends on a dead session vanish (MPC errors)
  ++frames_sent_;
  bytes_sent_ += frame.size();
  if (on_wire_frame) on_wire_frame(from, to, frame);

  // Serialize on the shared link: transfer occupies the medium for
  // size/bandwidth seconds after any transfer already queued.
  util::SimTime start = std::max(sched_.now(), l.busy_until);
  util::SimTime tx_time = static_cast<double>(frame.size()) * 8.0 / radio_.bandwidth_bps;
  l.busy_until = start + tx_time;

  if (fault_plan_ && fault_plan_->frame_faults_active()) {
    // The draw is keyed on (link, exact send timestamp, same-timestamp
    // sequence number) — state both replay engines reproduce exactly,
    // unlike a whole-run frame counter (task shards rebuild the network,
    // resetting any global counter mid-run).
    util::SimTime now = sched_.now();
    if (now != l.fault_last_t) {
      l.fault_last_t = now;
      l.fault_seq = 0;
    }
    FrameFault fault = fault_plan_->frame_fault(from, to, now, l.fault_seq++);
    // Jitter models MAC retransmissions: the medium stays occupied longer,
    // but delivery order is untouched (the session's counter nonces need
    // the reliable-in-order contract).
    l.busy_until += fault.extra_busy_s;
    if (fault.drop) {
      ++frames_dropped_fault_;
      return;  // occupied the air, never arrived
    }
  }

  util::SimTime deliver_at = l.busy_until + radio_.latency_s;
  ++l.in_flight;

  std::uint64_t generation = l.generation;
  sched_.schedule_at(deliver_at, [this, from, to, generation, frame = std::move(frame)] {
    Link& cur = link(from, to);
    // A stale generation means the session died mid-transfer; the loss was
    // already counted (and in_flight zeroed) when the session dropped, so a
    // stale delivery is a pure no-op. That property lets a task shard be
    // torn down at its last contact end without draining doomed deliveries.
    if (!cur.connected || cur.generation != generation) return;
    --cur.in_flight;
    ++frames_delivered_;
    MpcEndpoint& dst = endpoints_[to];
    if (dst.on_receive) dst.on_receive(from, frame);
  });
}

void MpcNetwork::drop_session(PeerId a, PeerId b, bool notify) {
  auto it = links_.find(norm(a, b));
  if (it == links_.end()) return;
  // Setups still in flight die with the link (range broke, or a teardown
  // aborted them): count them now, so the failure totals never depend on
  // whether the (now inert) completion timers ever fire — a task shard
  // may discard them with its scheduler. The generation bump is what makes
  // those timers inert.
  if (it->second.pending_setups > 0) {
    failed_connections_ += it->second.pending_setups;
    it->second.pending_setups = 0;
    ++it->second.generation;
  }
  if (!it->second.connected) return;
  it->second.connected = false;
  ++it->second.generation;  // invalidates in-flight frames
  // Frames on the air die with the session; count them now rather than when
  // their (now inert) delivery events fire, so the totals are identical
  // whether those events ever run.
  frames_lost_ += it->second.in_flight;
  it->second.in_flight = 0;
  it->second.busy_until = sched_.now();
  if (notify) {
    if (endpoints_[a].on_disconnected) {
      sched_.schedule_in(0, [this, a, b] {
        if (endpoints_[a].on_disconnected) endpoints_[a].on_disconnected(b);
      });
    }
    if (endpoints_[b].on_disconnected) {
      sched_.schedule_in(0, [this, a, b] {
        if (endpoints_[b].on_disconnected) endpoints_[b].on_disconnected(a);
      });
    }
  }
}

}  // namespace sos::sim
