#include "cluster/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace deepnote::cluster {
namespace {

constexpr ClusterTopology kTopo{.pods = 3, .bays_per_pod = 5};

TEST(Placement, ReplicaSetsAreDeterministicAndDistinct) {
  const PlacementMap map(kTopo, PlacementPolicy::kCrossPod, 3);
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto a = map.replicas(key);
    const auto b = map.replicas(key);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 3u);
    const std::set<NodeId> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), 3u) << "duplicate replica for key " << key;
    for (NodeId id : a) EXPECT_LT(id, kTopo.nodes());
  }
}

TEST(Placement, SamePodPacksEveryReplicaIntoPodZero) {
  const PlacementMap map(kTopo, PlacementPolicy::kSamePod, 3);
  for (std::uint64_t key = 0; key < 500; ++key) {
    for (NodeId id : map.replicas(key)) {
      EXPECT_EQ(kTopo.pod_of(id), 0u);
    }
  }
}

TEST(Placement, CrossPodSpansDistinctPods) {
  const PlacementMap map(kTopo, PlacementPolicy::kCrossPod, 3);
  for (std::uint64_t key = 0; key < 500; ++key) {
    std::set<std::size_t> pods;
    for (NodeId id : map.replicas(key)) pods.insert(kTopo.pod_of(id));
    EXPECT_EQ(pods.size(), 3u) << "pod collision for key " << key;
  }
}

TEST(Placement, RackAwareUsesDistinctPodsAndFarBays) {
  const PlacementMap map(kTopo, PlacementPolicy::kRackAware, 3);
  // Bays count away from the incident wall: the far half of a 5-bay
  // tower is bays {3, 4}.
  const std::size_t far_cutoff = kTopo.bays_per_pod - (kTopo.bays_per_pod + 1) / 2;
  for (std::uint64_t key = 0; key < 500; ++key) {
    std::set<std::size_t> pods;
    for (NodeId id : map.replicas(key)) {
      pods.insert(kTopo.pod_of(id));
      EXPECT_GE(kTopo.bay_of(id), far_cutoff)
          << "near-wall bay used for key " << key;
    }
    EXPECT_EQ(pods.size(), 3u);
  }
}

TEST(Placement, KeysCoverTheWholeFleet) {
  const PlacementMap map(kTopo, PlacementPolicy::kCrossPod, 3);
  std::set<NodeId> touched;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    for (NodeId id : map.replicas(key)) touched.insert(id);
  }
  EXPECT_EQ(touched.size(), kTopo.nodes());
}

TEST(Placement, PrimariesSpreadAcrossPods) {
  const PlacementMap map(kTopo, PlacementPolicy::kCrossPod, 3);
  std::vector<std::size_t> per_pod(kTopo.pods, 0);
  constexpr std::uint64_t kKeys = 3000;
  std::vector<NodeId> replicas;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    map.replicas(key, replicas);
    ++per_pod[kTopo.pod_of(replicas.front())];
  }
  for (std::size_t pod = 0; pod < kTopo.pods; ++pod) {
    EXPECT_GT(per_pod[pod], kKeys / kTopo.pods / 2)
        << "pod " << pod << " starved of primaries";
  }
}

TEST(Placement, RejectsImpossibleReplication) {
  EXPECT_THROW(PlacementMap(kTopo, PlacementPolicy::kCrossPod, 0),
               std::invalid_argument);
  EXPECT_THROW(PlacementMap(kTopo, PlacementPolicy::kCrossPod, 4),
               std::invalid_argument);
  EXPECT_THROW(PlacementMap(kTopo, PlacementPolicy::kRackAware, 4),
               std::invalid_argument);
  EXPECT_THROW(PlacementMap(kTopo, PlacementPolicy::kSamePod, 6),
               std::invalid_argument);
  EXPECT_NO_THROW(PlacementMap(kTopo, PlacementPolicy::kSamePod, 5));
}

TEST(Placement, ReusedOutputVectorIsCleared) {
  const PlacementMap map(kTopo, PlacementPolicy::kSamePod, 2);
  std::vector<NodeId> out{99, 98, 97, 96};
  map.replicas(7, out);
  EXPECT_EQ(out.size(), 2u);
}

// The placement rule written with plain `%`, as it read before the map
// switched to division-free remainders; every replica set must match it.
std::vector<NodeId> reference_replicas(const ClusterTopology& topo,
                                       PlacementPolicy policy,
                                       std::size_t replication,
                                       std::uint64_t key) {
  std::vector<NodeId> out;
  const std::uint64_t h = mix64(key);
  const std::uint64_t h2 = mix64(h);
  switch (policy) {
    case PlacementPolicy::kSamePod: {
      const std::size_t start_bay = h % topo.bays_per_pod;
      for (std::size_t r = 0; r < replication; ++r) {
        out.push_back(topo.node_id(0, (start_bay + r) % topo.bays_per_pod));
      }
      break;
    }
    case PlacementPolicy::kCrossPod: {
      const std::size_t start_pod = h % topo.pods;
      for (std::size_t r = 0; r < replication; ++r) {
        const std::size_t pod = (start_pod + r) % topo.pods;
        const std::size_t bay = (h2 + r * 0x9e37ull) % topo.bays_per_pod;
        out.push_back(topo.node_id(pod, bay));
      }
      break;
    }
    case PlacementPolicy::kRackAware: {
      const std::size_t start_pod = h % topo.pods;
      const std::size_t far_bays = (topo.bays_per_pod + 1) / 2;
      for (std::size_t r = 0; r < replication; ++r) {
        const std::size_t pod = (start_pod + r) % topo.pods;
        const std::size_t bay =
            topo.bays_per_pod - 1 - ((h2 + r * 0x9e37ull) % far_bays);
        out.push_back(topo.node_id(pod, bay));
      }
      break;
    }
  }
  return out;
}

class PlacementReferenceTest
    : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(PlacementReferenceTest, MatchesTheRemainderReference) {
  // Few pods, so a replica walk from a hashed start wraps past the last
  // pod (or bay) for a large share of keys; 1, 5 and 7 bays cover the
  // single-bay tower and odd far halves.
  const PlacementPolicy policy = GetParam();
  std::vector<NodeId> out;
  for (const std::size_t bays : {1u, 5u, 7u}) {
    for (const std::size_t pods : {3u, 4u, 2000u}) {
      const ClusterTopology topo{.pods = pods, .bays_per_pod = bays};
      const std::size_t limit =
          policy == PlacementPolicy::kSamePod ? bays : pods;
      for (const std::size_t replication :
           {std::size_t{1}, std::min<std::size_t>(3, limit), limit}) {
        if (replication > 7) continue;  // the 2000-pod walk adds nothing
        const PlacementMap map(topo, policy, replication);
        std::size_t wrapped = 0;
        for (std::uint64_t key = 0; key < 100000; ++key) {
          map.replicas(key, out);
          const std::vector<NodeId> want =
              reference_replicas(topo, policy, replication, key);
          ASSERT_EQ(out, want) << placement_name(policy) << " pods=" << pods
                               << " bays=" << bays
                               << " replication=" << replication
                               << " key=" << key;
          if (want.size() > 1 && want.back() < want.front()) ++wrapped;
        }
        if (replication > 1 && (policy == PlacementPolicy::kSamePod ||
                                pods < 100)) {
          EXPECT_GT(wrapped, 0u) << "no replica walk wrapped";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlacementReferenceTest,
    ::testing::Values(PlacementPolicy::kSamePod, PlacementPolicy::kCrossPod,
                      PlacementPolicy::kRackAware),
    [](const ::testing::TestParamInfo<PlacementPolicy>& info) {
      switch (info.param) {
        case PlacementPolicy::kSamePod: return std::string("SamePod");
        case PlacementPolicy::kCrossPod: return std::string("CrossPod");
        case PlacementPolicy::kRackAware: return std::string("RackAware");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace deepnote::cluster
