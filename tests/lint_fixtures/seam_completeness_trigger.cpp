// sos-lint fixture: MUST trigger [seam-completeness].
// A seam class (in the fixture config: SeamFixture) with a member that
// neither detach() nor attach() — nor any method they call — ever touches:
// that state silently stays behind when a node crosses an task-shard
// boundary. Not compiled — parsed by the linter.
#include <cstddef>

struct Scheduler;

class SeamFixture {
 public:
  void detach() {
    sched_ = nullptr;
    drop_sessions();
  }
  void attach(Scheduler& sched) {
    sched_ = &sched;
    rearm();
  }

 private:
  void drop_sessions() { sessions_ = 0; }
  void rearm() { pending_event_ = next_deadline_; }

  Scheduler* sched_ = nullptr;
  std::size_t sessions_ = 0;
  unsigned long pending_event_ = 0;
  double next_deadline_ = 0.0;
  std::size_t forgotten_counter_ = 0;  // finding: never crosses the seam
};
