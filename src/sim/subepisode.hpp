// ContactDag: the analysis pass behind strand-level parallel replay. A
// recorded ContactTrace fixes every opportunity for state to move between
// nodes before replay begins, so the trace is a conservative-lookahead
// oracle: every node's next incoming contact time is known up front
// (Chandy–Misra–Bryant null messages without the protocol). The run can
// therefore be cut into tasks, each replayed on its own scheduler shard,
// with each node's timeline cut into "strands" between its consecutive
// contacts: a member is released the moment its last contact in a task
// ends, not when the whole task does.
//
// Construction keeps only the mandatory fusion:
//
//   1. Contacts that share a node and overlap (or touch) in time are fused —
//      their events interleave on the shared node and cannot be split.
//   1b. Clusters whose *per-node hulls* overlap fuse to a fixpoint: step-1
//      fusion is transitive through other nodes, so a node's contacts
//      within one cluster need not be contiguous, and a cluster sitting in
//      that hull's gap would need the node while the first cluster still
//      holds it. Fusion is keyed on per-node hulls, never on cluster global
//      spans: a task whose span nests inside another's stays separate as
//      long as every shared node's own windows are disjoint, because the
//      engine detaches each member at its strand end (ContactStrand::
//      last_end), not at the task's global end. Pending timers re-arm on
//      the node's next shard at their original absolute deadlines.
//   1c. Cycles in the resulting per-node ordering fuse to a fixpoint:
//      cluster A can hold node X before B while B holds node Y before A
//      (mutual entanglement) even with disjoint hulls everywhere, and then
//      no execution order exists.
//   2. Task B depends on task A when they share a node whose A-strand
//      precedes its B-strand (middleware state handoff through the
//      SosNode detach/attach seam).
//
// One trailing "tail" task (no contacts) covers every node's timeline from
// its last contact to the horizon. Tasks are indexed in trace order, which
// is a topological order of the DAG. ContactDag::fused builds the coarsest
// partition on the same types — one task holding every node — which is
// single-scheduler semantics on the task machinery.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/trace.hpp"

namespace sos::sim {

/// One member node's occupancy of a ContactTask: the window from its first
/// contact start to its last contact end within the task. The node attaches
/// to the task's shard at the task start and detaches at `last_end`; its
/// windows across distinct tasks are strictly disjoint (fusion step 1b), so
/// the strand sequence tiles the node's timeline.
struct ContactStrand {
  std::uint32_t node = 0;
  util::SimTime first_start = 0;
  util::SimTime last_end = 0;
};

struct ContactTask {
  /// Member strands, ascending by node. For the tail task: every node, with
  /// first_start 0 and last_end = horizon (the engine derives each member's
  /// actual resume point from its previous task, not from these fields).
  std::vector<ContactStrand> strands;
  /// Indices into the source trace's contacts(), ascending (= trace order).
  /// Empty for the tail task.
  std::vector<std::size_t> contacts;
  /// Earliest contact start / latest contact end (tail: 0 and the horizon).
  util::SimTime first_start = 0;
  util::SimTime last_end = 0;
  /// Tasks that must finish before this one may run (state handoff).
  std::vector<std::size_t> deps;
};

class ContactDag {
 public:
  /// Partition `trace` over `node_count` nodes and a [0, horizon] timeline.
  /// Deterministic: depends only on the arguments, never on thread count.
  static ContactDag partition(const ContactTrace& trace, std::size_t node_count,
                              util::SimTime horizon);

  /// The one-task partition: a single task holding every node over every
  /// contact (each member's strand ends at the trace's last contact end),
  /// then the tail. Replaying it is the single-scheduler run on the strand
  /// machinery.
  static ContactDag fused(const ContactTrace& trace, std::size_t node_count,
                          util::SimTime horizon);

  const std::vector<ContactTask>& tasks() const { return tasks_; }
  /// Tasks carrying contacts (the tail, when present, is the last one).
  std::size_t contact_task_count() const { return contact_tasks_; }

  /// Sum over the longest dependency chain of per-task contact counts,
  /// divided into the total: the parallel speedup ceiling this trace admits
  /// under strand partitioning (1.0 = fully sequential).
  double parallelism() const;

  /// Maximum number of contact tasks whose [first_start, last_end] spans are
  /// open at one instant (ends close before starts at equal timestamps; the
  /// tail is excluded). Unlike parallelism(), this measures sim-time
  /// concurrency: on the single-hotspot cells independent overnight
  /// home-pair tasks overlap each other (and the daily hotspot megatask's
  /// span) without lying on one critical path.
  std::size_t width() const;

 private:
  std::vector<ContactTask> tasks_;
  std::size_t contact_tasks_ = 0;
};

}  // namespace sos::sim
