// R-way replicated object placement over a pod/bay topology.
//
// Shahrad et al. (arXiv:1712.07816) showed acoustic attacks break the
// independent-failure assumption RAID relies on: every drive sharing the
// insonified enclosure fails together. Placement is where a cluster
// decides how much of that correlated blast radius a replica set spans:
//
//  * kSamePod   — every replica set packed into pod 0 (the dense layout
//                 a capacity-first operator ships; all replicas share
//                 one enclosure and die together).
//  * kCrossPod  — replicas land in R distinct pods, bays hashed; one
//                 insonified pod costs each object at most one replica.
//  * kRackAware — distinct pods AND far-wall bays: bays nearer the
//                 incident wall see more excitation (core/rack.h), so
//                 the placer prefers the acoustically quiet half of
//                 each tower.
//
// Placement is a pure function of (key, topology, policy, replication):
// no state, no rebalancing, deterministic on every platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fast_mod.h"

namespace deepnote::cluster {

using NodeId = std::uint32_t;

enum class PlacementPolicy {
  kSamePod,
  kCrossPod,
  kRackAware,
};

const char* placement_name(PlacementPolicy policy);

/// splitmix64 finalizer: the key-hash used by placement and the object
/// address map. Stable across platforms.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ClusterTopology {
  std::size_t pods = 3;
  std::size_t bays_per_pod = 5;

  std::size_t nodes() const { return pods * bays_per_pod; }
  NodeId node_id(std::size_t pod, std::size_t bay) const {
    return static_cast<NodeId>(pod * bays_per_pod + bay);
  }
  std::size_t pod_of(NodeId id) const { return id / bays_per_pod; }
  std::size_t bay_of(NodeId id) const { return id % bays_per_pod; }
};

class PlacementMap {
 public:
  /// Throws std::invalid_argument when the topology cannot host
  /// `replication` distinct replicas under `policy` (same-pod needs
  /// replication <= bays_per_pod, the spreading policies need
  /// replication <= pods).
  PlacementMap(ClusterTopology topology, PlacementPolicy policy,
               std::size_t replication);

  const ClusterTopology& topology() const { return topology_; }
  PlacementPolicy policy() const { return policy_; }
  std::size_t replication() const { return replication_; }

  /// Replica node ids for `key`, primary first. `out` is reused.
  void replicas(std::uint64_t key, std::vector<NodeId>& out) const;
  std::vector<NodeId> replicas(std::uint64_t key) const;

 private:
  ClusterTopology topology_;
  PlacementPolicy policy_;
  std::size_t replication_;
  // Division-free remainders by the topology's constant divisors: pods,
  // bays per pod, and the far half of a tower (rack-aware).
  sim::FastMod mod_pods_;
  sim::FastMod mod_bays_;
  sim::FastMod mod_far_bays_;
};

}  // namespace deepnote::cluster
