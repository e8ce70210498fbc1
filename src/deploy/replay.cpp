#include "deploy/replay.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alleyoop/app.hpp"
#include "crypto/verify_memo.hpp"
#include "deploy/scenario_detail.hpp"
#include "sim/multipeer.hpp"
#include "sim/scheduler.hpp"
#include "sim/subepisode.hpp"
#include "util/codec.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace sos::deploy {

namespace {

/// Everything one task produces; merged into the ScenarioResult in
/// task-index order so the outcome never depends on completion order.
struct TaskOut {
  MetricsOracle oracle;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t connections = 0;
  std::uint64_t connections_failed = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frames_dropped_fault = 0;
};

/// Shared engine state. Workers touch disjoint slices: a task only
/// reads/writes its member nodes' state (exclusive by the DAG's per-node
/// chaining) and its own TaskOut slot.
struct EngineState {
  const ScenarioConfig& config;
  const ScenarioWorld& world;
  /// The trace the tasks index into — the recorded trace, its fault-reshaped
  /// transform, or one segment of either under segmented replay.
  const sim::ContactTrace& trace;
  const sim::FaultPlan* plan;  // compiled fault plan (may be null)
  const sim::ContactDag& dag;
  std::vector<std::unique_ptr<mw::SosNode>>& nodes;
  std::vector<std::unique_ptr<alleyoop::App>>& apps;
  /// Per-node merged workload timelines (posts + floods + reboots).
  const std::vector<std::vector<detail::TimelineEvent>>& timelines;
  std::vector<std::size_t>& timeline_cursor;   // next unscheduled event per node
  std::vector<util::SimTime>& resume_at;       // per-node timeline progress
  std::vector<TaskOut>& outs;
  double horizon;
};

void run_strand_task(const EngineState& st, std::size_t ti);

/// The Kahn-worker queue: every worker (the calling thread plus any helpers
/// borrowed from the WorkerBudget) coordinates through this state, all of
/// it guarded by `mu` — the annotations make "touched the ready set without
/// the lock" a clang -Wthread-safety compile error, not a TSan coin-flip.
/// `dependents` is deliberately outside the guarded set: it is written once
/// before any worker starts and read-only afterwards.
struct KahnQueue {
  util::Mutex mu;
  std::condition_variable_any cv;
  std::set<std::size_t> ready SOS_GUARDED_BY(mu);           // runnable tasks
  std::vector<std::size_t> pending SOS_GUARDED_BY(mu);      // unmet deps per task
  std::size_t running SOS_GUARDED_BY(mu) = 0;               // tasks in flight
  std::size_t done SOS_GUARDED_BY(mu) = 0;                  // tasks completed
  std::vector<std::thread> helpers SOS_GUARDED_BY(mu);      // spawned workers
  std::size_t borrowed SOS_GUARDED_BY(mu) = 0;              // budget tokens held
  std::vector<std::vector<std::size_t>> dependents;         // reverse dep edges
};

/// Execute the task DAG with `jobs` (>= 1) workers. One code path for
/// serial and parallel execution: the calling thread is always a worker;
/// helpers join it when jobs > 1 or the shared budget grants tokens. The
/// ordered ready set makes the serial order identical to a dedicated serial
/// loop, and an uncontended MutexLock per task is noise next to a task's
/// millisecond-scale replay. Throws if the DAG cannot complete (a cycle).
void execute_task_dag(const EngineState& st, std::size_t jobs, WorkerBudget* budget) {
  const std::vector<sim::ContactTask>& tasks = st.dag.tasks();
  const std::size_t count = tasks.size();
  KahnQueue q;
  q.dependents.resize(count);
  {
    util::MutexLock lock(q.mu);
    q.pending.resize(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      q.pending[i] = tasks[i].deps.size();
      for (std::size_t d : tasks[i].deps) q.dependents[d].push_back(i);
      if (q.pending[i] == 0) q.ready.insert(i);
    }
  }

  std::function<void()> worker;  // named so a worker can spawn another
  worker = [&] {
    util::MutexLock lock(q.mu);
    for (;;) {
      if (q.done == count) return;
      if (q.ready.empty()) {
        if (q.running == 0) return;  // cycle guard: nothing can make progress
        q.mu.wait(q.cv);
        continue;
      }
      std::size_t i = *q.ready.begin();
      q.ready.erase(q.ready.begin());
      ++q.running;
      lock.unlock();
      run_strand_task(st, i);
      lock.lock();
      --q.running;
      ++q.done;
      for (std::size_t d : q.dependents[i]) {
        if (--q.pending[d] == 0) q.ready.insert(d);
      }
      // Opportunistic growth: tokens freed by finished sweep cells can be
      // picked up mid-run (the heavy cell usually starts while its grid
      // siblings still hold theirs).
      if (budget != nullptr && q.ready.size() > 1 && q.helpers.size() + 1 < jobs &&
          budget->acquire(1) == 1) {
        ++q.borrowed;
        q.helpers.emplace_back(worker);
      }
      q.cv.notify_all();
    }
  };

  // One worker is this thread; the rest borrow from the shared budget when
  // one is present (the sweep's thread allowance), else spawn up to the
  // requested job count.
  {
    std::size_t want = jobs - 1;
    util::MutexLock lock(q.mu);
    if (budget != nullptr) {
      q.borrowed = budget->acquire(want);
      want = q.borrowed;
    }
    q.helpers.reserve(want);
    for (std::size_t i = 0; i < want; ++i) q.helpers.emplace_back(worker);
  }
  worker();
  std::size_t completed = 0;
  std::size_t borrowed = 0;
  std::vector<std::thread> helpers;
  {
    // Wake helpers parked on an empty ready set so they observe done, and
    // take ownership of the helper list: no helper can spawn another once
    // done == count (spawning requires finishing a task), so the
    // swapped-out vector is complete.
    util::MutexLock lock(q.mu);
    q.cv.notify_all();
    helpers.swap(q.helpers);
    completed = q.done;
    borrowed = q.borrowed;
  }
  for (auto& t : helpers) t.join();
  if (budget != nullptr && borrowed > 0) budget->release(borrowed);
  if (completed != count) {
    throw std::logic_error("contact task DAG failed to complete (dependency cycle?)");
  }
}

/// One ContactDag task on its own shard. Each member's timeline slice ends
/// at the member's OWN strand end (not the task's global end), and each
/// member detaches at that strand end, so a task whose span overlaps
/// another task's span never holds a node past its last contact here.
/// Pending timers recorded at the detach re-arm on the node's next shard at
/// their original absolute deadlines — every such deadline is >= the detach
/// time, and the next shard starts no later than this node's resume point,
/// so nothing is ever clamped differently than the single-scheduler path.
void run_strand_task(const EngineState& st, std::size_t ti) {
  const sim::ContactTask& task = st.dag.tasks()[ti];
  const ScenarioConfig& config = st.config;
  const bool tail = task.contacts.empty();
  util::SimTime t_start = st.horizon;
  for (const sim::ContactStrand& s : task.strands)
    t_start = std::min(t_start, st.resume_at[s.node]);
  const util::SimTime t_end = tail ? st.horizon : task.last_end;

  sim::Scheduler sched(t_start);
  sim::MpcNetwork net(sched, config.nodes, config.radio);
  // Per-frame fault draws key on (link, exact timestamp, same-timestamp
  // sequence), all of which this shard reproduces exactly — a fresh network
  // per task costs nothing.
  if (st.plan != nullptr) net.set_fault_plan(st.plan);

  // The task's contact subset, in trace order — the same relative order
  // (and therefore the same same-timestamp FIFO behavior) the full trace
  // has on the single-scheduler path.
  sim::ContactTrace sub;
  for (std::size_t ci : task.contacts) sub.add(st.trace.contacts()[ci]);
  sim::TracePlayer player(sched, std::move(sub));
  player.on_contact_start = [&net](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<sim::PeerId>(a), static_cast<sim::PeerId>(b), true);
  };
  player.on_contact_end = [&net](std::uint32_t a, std::uint32_t b) {
    net.set_in_range(static_cast<sim::PeerId>(a), static_cast<sim::PeerId>(b), false);
  };
  player.start();

  TaskOut& out = st.outs[ti];
  const sim::TrajectoryMobility& mobility = st.world.mobility;

  // Attach members in ascending node order (strands are sorted by node) —
  // the order the single-scheduler path registers their timers in.
  for (const sim::ContactStrand& s : task.strands) {
    mw::SosNode& node = *st.nodes[s.node];
    node.attach(sched, net.endpoint(static_cast<sim::PeerId>(s.node)));
    std::size_t idx = s.node;
    node.on_carry = [&out, &node, &sched, &mobility, idx](const bundle::Bundle& b) {
      out.oracle.record_carry(
          {b.id(), node.user_id(), sched.now(), mobility.position(idx, sched.now())});
    };
    node.on_data = [&out, &node, &sched, &mobility, idx](const bundle::Bundle& b,
                                                         const pki::Certificate&) {
      out.oracle.record_delivery({b.id(), node.user_id(), sched.now(), b.hop_count,
                                  mobility.position(idx, sched.now())});
    };
  }

  // Each member's timeline slice runs to ITS strand end: a post after a
  // node's last contact in this task belongs to the node's next shard,
  // where it fires at the same absolute time with the same local state.
  // Events are scheduled strictly in merged-timeline order; one before this
  // shard's t_start clamps to t_start while keeping its place in the FIFO,
  // which is exactly what the single-scheduler relative order reduces to
  // at a shard boundary.
  for (const sim::ContactStrand& s : task.strands) {
    const util::SimTime cutoff = tail ? st.horizon : s.last_end;
    const std::vector<detail::TimelineEvent>& tl = st.timelines[s.node];
    std::size_t& cursor = st.timeline_cursor[s.node];
    while (cursor < tl.size() && tl[cursor].t <= cutoff) {
      const detail::TimelineEvent& ev = tl[cursor];
      const std::size_t idx = s.node;
      alleyoop::App& app = *st.apps[s.node];
      mw::SosNode& node = *st.nodes[s.node];
      switch (ev.kind) {
        case detail::TimelineEvent::Kind::Post:
          sched.schedule_at(ev.t, [&out, &app, &node, &sched, &mobility, idx, k = ev.k] {
            auto post =
                app.post("post #" + std::to_string(k) + " by user" + std::to_string(idx));
            out.oracle.record_post({{node.user_id(), post.msg_num},
                                    node.user_id(),
                                    sched.now(),
                                    mobility.position(idx, sched.now())});
          });
          break;
        case detail::TimelineEvent::Kind::Flood:
          sched.schedule_at(ev.t, [&node, idx, k = ev.k] {
            node.publish(util::to_bytes("junk #" + std::to_string(k) + " from user" +
                                        std::to_string(idx)));
          });
          break;
        case detail::TimelineEvent::Kind::Reboot:
          sched.schedule_at(ev.t, [&node, churn = ev.churn] {
            node.reboot(churn->lose_store, churn->lose_resume_cache);
          });
          break;
      }
      ++cursor;
    }
  }

  // Per-member detach at the strand end, via segmented execution: run the
  // shard up to each distinct strand end and detach that group only after
  // run_until returns. A scheduled detach event would be unsound here —
  // contact teardown cascades through zero-delay events (drop_session
  // notifies on_disconnected via schedule_in(0), which triggers the session
  // drop and the adaptive verify flush), and those land *behind* any
  // pre-scheduled event at the same timestamp. run_until(t) drains every
  // cascade at t first — so by the time a member detaches, its sessions
  // have already died the same death (and flushed the same queues) as on
  // the single-scheduler path.
  if (!tail) {
    std::map<util::SimTime, std::vector<std::uint32_t>> detach_groups;
    for (const sim::ContactStrand& s : task.strands)
      detach_groups[s.last_end].push_back(s.node);
    for (const auto& [at, members] : detach_groups) {
      sched.run_until(at);
      for (std::uint32_t n : members) {
        mw::SosNode& node = *st.nodes[n];
        node.on_carry = nullptr;
        node.on_data = nullptr;
        node.detach();
      }
    }
  } else {
    sched.run_until(t_end);
    for (const sim::ContactStrand& s : task.strands) {
      mw::SosNode& node = *st.nodes[s.node];
      node.on_carry = nullptr;
      node.on_data = nullptr;
      node.detach();
    }
  }

  for (const sim::ContactStrand& s : task.strands)
    st.resume_at[s.node] = tail ? t_end : s.last_end;
  out.wire_frames = net.frames_sent();
  out.wire_bytes = net.bytes_sent();
  out.connections = net.connections_established();
  out.connections_failed = net.connections_failed();
  out.frames_lost = net.frames_lost();
  out.frames_dropped_fault = net.frames_dropped_fault();
  // player cancels its leftover events before sched is destroyed.
}

}  // namespace

/// The long-lived half of a segmented replay. Declaration order doubles as
/// destruction order constraints: the fleet must die before the staging
/// substrate it was constructed against, and the timelines (which hold
/// plan-owned churn pointers) before the fault plan.
struct ReplaySession::Impl {
  ScenarioConfig config;
  const ScenarioWorld& world;
  ReplayOptions replay;
  double horizon = 0;
  std::optional<sim::FaultPlan> fault_plan;
  sim::ContactTrace faulted;
  const sim::ContactTrace* trace = nullptr;
  std::unique_ptr<sim::Scheduler> staging;
  std::unique_ptr<sim::MpcNetwork> staging_net;
  crypto::VerifyMemo run_memo;
  detail::Fleet fleet;
  std::vector<std::vector<detail::TimelineEvent>> timelines;
  std::vector<std::size_t> timeline_cursor;
  std::vector<util::SimTime> resume_at;
  std::vector<bool> consumed;  // trace contacts already replayed
  util::SimTime now = 0;
  ScenarioResult result;  // oracle records + wire counters merged so far

  explicit Impl(const ScenarioConfig& c, const ScenarioWorld& w, const ReplayOptions& r)
      : config(c), world(w), replay(r) {}
};

ReplaySession::ReplaySession(const ScenarioConfig& config, const ScenarioWorld& world,
                             const ReplayOptions& replay)
    : impl_(std::make_unique<Impl>(config, world, replay)) {
  Impl& im = *impl_;
  im.horizon = util::days(config.days);

  // Compiled fault plan; trace-reshaping faults transform the recorded
  // trace BEFORE partitioning, so the task DAG decomposes the same faulted
  // world the single-scheduler path replays.
  if (config.faults.any()) im.fault_plan.emplace(config.faults, config.seed, config.nodes);
  const sim::FaultPlan* plan = im.fault_plan ? &*im.fault_plan : nullptr;
  im.trace = &world.trace;
  if (plan != nullptr && plan->reshapes_trace()) {
    im.faulted = plan->apply(world.trace);
    im.trace = &im.faulted;
  }

  // --- RNG streams, consumed in exactly the single-scheduler order --------
  util::Rng rng(config.seed);
  {
    util::Rng discard = rng.fork();  // the mobility fork replay mode skips
    (void)discard;
  }

  // --- fleet setup on a staging substrate ---------------------------------
  // Nodes are constructed and started against a scheduler that never runs
  // an event (only timer deadlines register), then detached; each task
  // attaches its members to its own shard.
  im.staging = std::make_unique<sim::Scheduler>();
  im.staging_net = std::make_unique<sim::MpcNetwork>(*im.staging, config.nodes, config.radio);
  // Shared across nodes AND task workers; a caller-owned memo
  // (replay.memo, the sweep-wide scope) takes precedence over the run-local
  // one so a cell's variants collapse their cross-variant re-verifies too.
  crypto::VerifyMemo* verify_memo = replay.memo != nullptr ? replay.memo : &im.run_memo;
  detail::build_fleet(im.fleet, config, *im.staging, *im.staging_net,
                      replay.share_verify_memo ? verify_memo : nullptr, plan);

  graph::Digraph social = detail::build_social_graph(config, rng);
  im.result.social = social;
  im.result.oracle.set_subscriptions(detail::wire_follows(im.fleet, social));

  for (auto& node : im.fleet.nodes) node->start();
  for (auto& node : im.fleet.nodes) node->detach();

  util::Rng workload_rng = rng.fork();
  im.timelines = detail::build_timelines(config, workload_rng, plan);
  im.timeline_cursor.assign(config.nodes, 0);
  im.resume_at.assign(config.nodes, 0.0);
  im.consumed.assign(im.trace->size(), false);
}

ReplaySession::~ReplaySession() = default;

std::vector<util::SimTime> ReplaySession::quiescent_cuts(util::SimTime min_gap) const {
  const Impl& im = *impl_;
  // Sweep the contact intervals by start time tracking the covered horizon;
  // a hole in the coverage is a globally quiescent gap.
  std::vector<std::pair<util::SimTime, util::SimTime>> iv;
  iv.reserve(im.trace->size());
  for (const sim::ContactInterval& c : im.trace->contacts()) iv.emplace_back(c.start, c.end);
  std::sort(iv.begin(), iv.end());
  std::vector<util::SimTime> cuts;
  util::SimTime cover_end = 0;
  bool any = false;
  for (const auto& [s, e] : iv) {
    if (any && s > cover_end && s - cover_end >= min_gap) {
      cuts.push_back(cover_end + (s - cover_end) / 2.0);
    }
    if (e > cover_end) cover_end = e;
    any = true;
  }
  if (any && im.horizon > cover_end && im.horizon - cover_end >= min_gap) {
    cuts.push_back(cover_end + (im.horizon - cover_end) / 2.0);
  }
  return cuts;
}

void ReplaySession::advance_to(util::SimTime t) {
  Impl& im = *impl_;
  if (t > im.horizon) t = im.horizon;
  assert(t >= im.now);
  const bool final_segment = t >= im.horizon;
  const sim::FaultPlan* plan = im.fault_plan ? &*im.fault_plan : nullptr;

  // This segment's contacts, in trace order: everything not yet replayed
  // that ends at or before the cut. The scan covers ALL remaining indices —
  // a fault-reshaped trace is not sorted by end time, so a contiguous
  // cursor would strand late-ending contacts. At the horizon everything
  // left rides along regardless of end time.
  std::vector<std::size_t> picked;
  const std::vector<sim::ContactInterval>& contacts = im.trace->contacts();
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    if (im.consumed[i]) continue;
    if (final_segment || contacts[i].end <= t) picked.push_back(i);
  }
  sim::ContactTrace seg;
  for (std::size_t i : picked) seg.add(contacts[i]);

  // Partition the segment, with the cut as the horizon: the trailing tail
  // task runs every node's local timers up to the cut, which is exactly
  // what makes the cut a serializable state. Strand workers get the strand
  // DAG; mono gets the fused one-task partition on one worker.
  const std::size_t jobs = im.replay.subepisode_jobs;
  const sim::ContactDag dag = jobs > 0 ? sim::ContactDag::partition(seg, im.config.nodes, t)
                                       : sim::ContactDag::fused(seg, im.config.nodes, t);
  std::vector<TaskOut> outs(dag.tasks().size());
  EngineState st{im.config,
                 im.world,
                 seg,
                 plan,
                 dag,
                 im.fleet.nodes,
                 im.fleet.apps,
                 im.timelines,
                 im.timeline_cursor,
                 im.resume_at,
                 outs,
                 t};
  execute_task_dag(st, jobs > 0 ? jobs : 1, im.replay.budget);

  // Merge in task-index order — deterministic regardless of worker count.
  for (const TaskOut& out : outs) {
    for (const auto& r : out.oracle.posts()) im.result.oracle.record_post(r);
    for (const auto& r : out.oracle.carries()) im.result.oracle.record_carry(r);
    for (const auto& r : out.oracle.deliveries()) im.result.oracle.record_delivery(r);
    im.result.wire_frames += out.wire_frames;
    im.result.wire_bytes += out.wire_bytes;
    im.result.connections += out.connections;
    im.result.connections_failed += out.connections_failed;
    im.result.frames_lost += out.frames_lost;
    im.result.frames_dropped_fault += out.frames_dropped_fault;
  }
  for (std::size_t i : picked) im.consumed[i] = true;
  im.now = t;
}

util::SimTime ReplaySession::sim_time() const { return impl_->now; }
util::SimTime ReplaySession::horizon() const { return impl_->horizon; }
const ScenarioResult& ReplaySession::partial() const { return impl_->result; }
std::size_t ReplaySession::node_count() const { return impl_->fleet.nodes.size(); }
mw::SosNode& ReplaySession::node(std::size_t i) { return *impl_->fleet.nodes[i]; }

mw::NodeStats ReplaySession::stats_totals() const {
  mw::NodeStats totals;
  for (const auto& node : impl_->fleet.nodes) detail::add_stats(totals, node->stats());
  return totals;
}

ScenarioResult ReplaySession::finish() {
  Impl& im = *impl_;
  ScenarioResult result = std::move(im.result);
  for (const auto& node : im.fleet.nodes) detail::add_stats(result.totals, node->stats());
  result.contacts = im.trace->size();
  result.simulated_days = im.config.days;
  return result;
}

void ReplaySession::save_state(util::Writer& w) const {
  const Impl& im = *impl_;
  w.f64(im.now);
  w.varint(im.fleet.nodes.size());
  for (const auto& node : im.fleet.nodes) {
    util::Writer sub;
    node->save_state(sub);
    w.bytes(sub.take());
  }
  for (std::size_t c : im.timeline_cursor) w.varint(c);
  for (util::SimTime t : im.resume_at) w.f64(t);
  const MetricsOracle& oracle = im.result.oracle;
  w.varint(oracle.posts().size());
  for (const PostRecord& r : oracle.posts()) {
    w.raw(r.id.origin.view());
    w.u32(r.id.msg_num);
    w.raw(r.author.view());
    w.f64(r.created);
    w.f64(r.location.x);
    w.f64(r.location.y);
  }
  w.varint(oracle.deliveries().size());
  for (const DeliveryRecord& r : oracle.deliveries()) {
    w.raw(r.id.origin.view());
    w.u32(r.id.msg_num);
    w.raw(r.subscriber.view());
    w.f64(r.at);
    w.u8(r.hops);
    w.f64(r.location.x);
    w.f64(r.location.y);
  }
  w.varint(oracle.carries().size());
  for (const CarryRecord& r : oracle.carries()) {
    w.raw(r.id.origin.view());
    w.u32(r.id.msg_num);
    w.raw(r.carrier.view());
    w.f64(r.at);
    w.f64(r.location.x);
    w.f64(r.location.y);
  }
  w.u64(im.result.wire_frames);
  w.u64(im.result.wire_bytes);
  w.u64(im.result.connections);
  w.u64(im.result.connections_failed);
  w.u64(im.result.frames_lost);
  w.u64(im.result.frames_dropped_fault);
}

bool ReplaySession::load_state(util::Reader& r) {
  Impl& im = *impl_;
  assert(im.now == 0);  // resume into a freshly constructed session only
  double now = r.f64();
  std::uint64_t nodes = r.varint();
  if (!r.ok() || nodes != im.fleet.nodes.size()) return false;
  // Range checks are written so NaN fails them: a NaN compares false.
  if (!(now >= 0 && now <= im.horizon)) return false;
  std::vector<util::Bytes> blobs(im.fleet.nodes.size());
  for (auto& blob : blobs) blob = r.bytes();
  std::vector<std::size_t> cursor(im.config.nodes);
  for (std::size_t i = 0; i < cursor.size(); ++i) {
    std::uint64_t v = r.varint();
    if (v > im.timelines[i].size()) return false;  // past the timeline's end
    cursor[i] = static_cast<std::size_t>(v);
  }
  std::vector<util::SimTime> resume(im.config.nodes);
  for (auto& t : resume) {
    t = r.f64();
    if (!(t >= 0 && t <= now)) return false;  // a node cannot resume past the cut
  }
  std::uint64_t posts = r.varint();
  if (!r.ok()) return false;
  std::vector<PostRecord> post_recs;
  for (std::uint64_t i = 0; i < posts && r.ok(); ++i) {
    PostRecord rec;
    rec.id.origin.bytes = r.raw_array<pki::kUserIdSize>();
    rec.id.msg_num = r.u32();
    rec.author.bytes = r.raw_array<pki::kUserIdSize>();
    rec.created = r.f64();
    rec.location.x = r.f64();
    rec.location.y = r.f64();
    post_recs.push_back(rec);
  }
  std::uint64_t deliveries = r.varint();
  std::vector<DeliveryRecord> delivery_recs;
  for (std::uint64_t i = 0; i < deliveries && r.ok(); ++i) {
    DeliveryRecord rec;
    rec.id.origin.bytes = r.raw_array<pki::kUserIdSize>();
    rec.id.msg_num = r.u32();
    rec.subscriber.bytes = r.raw_array<pki::kUserIdSize>();
    rec.at = r.f64();
    rec.hops = r.u8();
    rec.location.x = r.f64();
    rec.location.y = r.f64();
    delivery_recs.push_back(rec);
  }
  std::uint64_t carries = r.varint();
  std::vector<CarryRecord> carry_recs;
  for (std::uint64_t i = 0; i < carries && r.ok(); ++i) {
    CarryRecord rec;
    rec.id.origin.bytes = r.raw_array<pki::kUserIdSize>();
    rec.id.msg_num = r.u32();
    rec.carrier.bytes = r.raw_array<pki::kUserIdSize>();
    rec.at = r.f64();
    rec.location.x = r.f64();
    rec.location.y = r.f64();
    carry_recs.push_back(rec);
  }
  std::uint64_t wire_frames = r.u64();
  std::uint64_t wire_bytes = r.u64();
  std::uint64_t connections = r.u64();
  std::uint64_t connections_failed = r.u64();
  std::uint64_t frames_lost = r.u64();
  std::uint64_t frames_dropped_fault = r.u64();
  if (!r.ok()) return false;
  for (std::size_t i = 0; i < im.fleet.nodes.size(); ++i) {
    util::Reader sub{util::ByteView(blobs[i])};
    if (!im.fleet.nodes[i]->load_state(sub) || !sub.done()) return false;
  }
  im.timeline_cursor = std::move(cursor);
  im.resume_at = std::move(resume);
  for (const PostRecord& rec : post_recs) im.result.oracle.record_post(rec);
  for (const DeliveryRecord& rec : delivery_recs) im.result.oracle.record_delivery(rec);
  for (const CarryRecord& rec : carry_recs) im.result.oracle.record_carry(rec);
  im.result.wire_frames = wire_frames;
  im.result.wire_bytes = wire_bytes;
  im.result.connections = connections;
  im.result.connections_failed = connections_failed;
  im.result.frames_lost = frames_lost;
  im.result.frames_dropped_fault = frames_dropped_fault;
  // Contacts already replayed are recomputable from the cut time: a
  // quiescent cut consumes exactly the contacts ending before it.
  const std::vector<sim::ContactInterval>& contacts = im.trace->contacts();
  for (std::size_t i = 0; i < contacts.size(); ++i) im.consumed[i] = contacts[i].end <= now;
  im.now = now;
  return true;
}

}  // namespace sos::deploy
