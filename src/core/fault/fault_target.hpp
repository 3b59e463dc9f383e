// The failure-domain victim interface.
//
// Every runtime environment of the four systems implements FaultTarget,
// so one seeded FaultDomain drives HTC queues, MTC workflow servers and
// DRP-leased VMs identically. The three verbs mirror a node's lifecycle
// in an unreliable cluster:
//
//   healthy_nodes()  how many of the target's nodes can fail right now;
//   fail_nodes(n)    n nodes go down at the current simulation time —
//                    capacity degrades (it does NOT vanish from the books:
//                    the holding keeps billing while the provider swaps
//                    hardware) and work running on the dead nodes is killed
//                    subject to the target's recovery policy;
//   repair_nodes(n)  n previously failed nodes come back; the transparent
//                    hardware swap is metered at this point (reclaim the
//                    corpse + install the RE on the replacement).
//
// Targets with lease-per-job semantics (the DRP runner) treat repair as a
// no-op: a failed VM's lease simply ends, and the retry leases a fresh one.
#pragma once

#include <cstdint>
#include <string>

namespace dc::core::fault {

class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  /// Diagnostic name of the target (usually the server/runner name).
  virtual const std::string& fault_name() const = 0;

  /// Nodes currently eligible to fail. A stopped or destroyed runtime
  /// environment reports zero and is never selected as a victim.
  virtual std::int64_t healthy_nodes() const = 0;

  /// Takes `count` nodes down at the current simulation time. Idle nodes
  /// absorb failures first; then the most recently started work dies.
  /// Returns the number of jobs/tasks killed.
  virtual std::int64_t fail_nodes(std::int64_t count) = 0;

  /// Brings `count` previously failed nodes back at the current simulation
  /// time. Implementations clamp to their own down count, so a repair
  /// racing a shutdown is safe.
  virtual void repair_nodes(std::int64_t count) = 0;
};

}  // namespace dc::core::fault
