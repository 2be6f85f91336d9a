// Allocation accounting for the sharded cluster engine's hot loop.
//
// The tentpole contract: once the per-epoch arenas (request SoA, leg
// slots, per-node op queues) are warm, a steady-state engine run
// performs ZERO heap allocations — traffic generation, routing, wave
// execution, and combine all recycle flat buffers. This binary links
// the counting allocator (support/alloc_counter.h), so it must stay its
// own test executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/engine.h"
#include "storage/mem_disk.h"
#include "support/alloc_counter.h"

namespace deepnote::cluster {
namespace {

// A warm engine re-running the identical request stream must not touch
// the heap: every epoch's requests, legs, probes, and per-node queues
// land in arenas sized by the first run. MemDisk nodes keep the device
// layer allocation-free too (the drive model's write ledger is exempt
// from the contract — serving benches run timing-only).
TEST(EngineAllocTest, WarmEngineRunIsAllocationFree) {
  constexpr std::uint64_t kSectors = 16384;
  const ClusterTopology topo{.pods = 3, .bays_per_pod = 2};

  std::vector<std::unique_ptr<storage::MemDisk>> disks;
  std::vector<storage::BlockDevice*> devices;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    disks.push_back(std::make_unique<storage::MemDisk>(kSectors));
    devices.push_back(disks.back().get());
  }

  EngineConfig config;
  config.balancer.objects = 1000;
  config.traffic.arrival_rate_per_s = 2000.0;
  config.traffic.duration = sim::Duration::from_seconds(0.5);
  config.traffic.keyspace = 1000;
  config.jobs = 1;
  ShardedClusterEngine engine(topo, devices, config);

  // Warm run: grows every arena to the stream's steady-state footprint
  // and faults in MemDisk chunks for every written object.
  SloTracker slo(sim::SimTime::zero());
  const EngineReport warm = engine.run(sim::SimTime::zero(), slo);
  ASSERT_GT(warm.traffic.requests, 500u);

  // Identical replay (same seed, same devices): zero allocations across
  // the full run — start_run's resets reuse capacity too.
  const std::uint64_t before = test_support::heap_allocations();
  const EngineReport measured = engine.run(sim::SimTime::zero(), slo);
  const std::uint64_t after = test_support::heap_allocations();

  EXPECT_EQ(measured.traffic.requests, warm.traffic.requests);
  EXPECT_EQ(after - before, 0u)
      << "steady-state engine loop allocated on the hot path";
}

// The sharded path has arenas of its own: per-shard staged-op lists and
// active lists, per-shard depth maxima, and per-node queues filled by
// the workers. A fleet with enough traffic that every wave goes through
// the pool must replay allocation-free as well.
TEST(EngineAllocTest, WarmShardedEngineRunIsAllocationFree) {
  constexpr std::uint64_t kSectors = 16384;
  const ClusterTopology topo{.pods = 40, .bays_per_pod = 5};

  std::vector<std::unique_ptr<storage::MemDisk>> disks;
  std::vector<storage::BlockDevice*> devices;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    disks.push_back(std::make_unique<storage::MemDisk>(kSectors));
    devices.push_back(disks.back().get());
  }

  EngineConfig config;
  config.balancer.objects = 1000;
  config.traffic.arrival_rate_per_s = 60000.0;
  config.traffic.duration = sim::Duration::from_seconds(0.5);
  config.traffic.keyspace = 1000;
  config.jobs = 4;
  ShardedClusterEngine engine(topo, devices, config);
  ASSERT_GT(engine.shards(), 1u);

  SloTracker slo(sim::SimTime::zero());
  const EngineReport warm = engine.run(sim::SimTime::zero(), slo);
  // ~3000 requests per 50 ms epoch: every wave-0 batch clears the
  // inline threshold, so the waves run on the pool.
  const std::uint64_t epochs = static_cast<std::uint64_t>(
      config.traffic.duration.ns() / config.epoch.ns());
  ASSERT_GT(warm.traffic.requests / epochs, config.min_ops_to_shard);

  const std::uint64_t before = test_support::heap_allocations();
  const EngineReport measured = engine.run(sim::SimTime::zero(), slo);
  const std::uint64_t after = test_support::heap_allocations();

  EXPECT_EQ(measured.traffic.requests, warm.traffic.requests);
  EXPECT_EQ(measured.max_node_depth, warm.max_node_depth);
  EXPECT_EQ(after - before, 0u)
      << "steady-state sharded engine loop allocated on the hot path";
}

}  // namespace
}  // namespace deepnote::cluster
