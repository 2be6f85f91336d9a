#include "cluster/placement.h"

#include <stdexcept>

namespace deepnote::cluster {

const char* placement_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kSamePod: return "same-pod";
    case PlacementPolicy::kCrossPod: return "cross-pod";
    case PlacementPolicy::kRackAware: return "rack-aware";
  }
  return "?";
}

PlacementMap::PlacementMap(ClusterTopology topology, PlacementPolicy policy,
                           std::size_t replication)
    : topology_(topology), policy_(policy), replication_(replication) {
  if (topology_.pods == 0 || topology_.bays_per_pod == 0) {
    throw std::invalid_argument("placement: empty topology");
  }
  if (replication_ == 0) {
    throw std::invalid_argument("placement: replication must be >= 1");
  }
  if (policy_ == PlacementPolicy::kSamePod &&
      replication_ > topology_.bays_per_pod) {
    throw std::invalid_argument(
        "placement: same-pod needs replication <= bays_per_pod");
  }
  if (policy_ != PlacementPolicy::kSamePod && replication_ > topology_.pods) {
    throw std::invalid_argument(
        "placement: spreading policies need replication <= pods");
  }
  mod_pods_ = sim::FastMod(topology_.pods);
  mod_bays_ = sim::FastMod(topology_.bays_per_pod);
  mod_far_bays_ = sim::FastMod((topology_.bays_per_pod + 1) / 2);
}

void PlacementMap::replicas(std::uint64_t key, std::vector<NodeId>& out) const {
  out.resize(replication_);
  NodeId* const ids = out.data();
  const std::uint64_t h = mix64(key);
  // Independent stream for bay selection so pod and bay choices do not
  // correlate across keys.
  const std::uint64_t h2 = mix64(h);
  // Replica r walks from a hashed start to start + r. Replication never
  // exceeds the count walked, so start + r < 2 * count and one
  // conditional subtract is the whole remainder.
  switch (policy_) {
    case PlacementPolicy::kSamePod: {
      const std::size_t bays = topology_.bays_per_pod;
      const std::size_t start_bay = mod_bays_(h);
      for (std::size_t r = 0; r < replication_; ++r) {
        std::size_t bay = start_bay + r;
        if (bay >= bays) bay -= bays;
        ids[r] = topology_.node_id(0, bay);
      }
      break;
    }
    case PlacementPolicy::kCrossPod: {
      const std::size_t pods = topology_.pods;
      const std::size_t start_pod = mod_pods_(h);
      for (std::size_t r = 0; r < replication_; ++r) {
        std::size_t pod = start_pod + r;
        if (pod >= pods) pod -= pods;
        const std::size_t bay = mod_bays_(h2 + r * 0x9e37ull);
        ids[r] = topology_.node_id(pod, bay);
      }
      break;
    }
    case PlacementPolicy::kRackAware: {
      // Distinct pods like cross-pod, but only the far half of each
      // tower: bay indices count away from the incident wall, so the
      // highest indices see the least acoustic coupling.
      const std::size_t pods = topology_.pods;
      const std::size_t start_pod = mod_pods_(h);
      for (std::size_t r = 0; r < replication_; ++r) {
        std::size_t pod = start_pod + r;
        if (pod >= pods) pod -= pods;
        const std::size_t bay =
            topology_.bays_per_pod - 1 - mod_far_bays_(h2 + r * 0x9e37ull);
        ids[r] = topology_.node_id(pod, bay);
      }
      break;
    }
  }
}

std::vector<NodeId> PlacementMap::replicas(std::uint64_t key) const {
  std::vector<NodeId> out;
  replicas(key, out);
  return out;
}

}  // namespace deepnote::cluster
