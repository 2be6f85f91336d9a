// Allocation accounting for kvdb point reads.
//
// Once warm, a memtable lookup (one hash-index probe) and an SST lookup
// that reads a data block into the reader's reused buffer and decodes it
// in place perform ZERO heap allocations; only a found value longer than
// the small-string buffer is copied out. This binary links the counting
// allocator (support/alloc_counter.h), so it must stay its own test
// executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/extfs.h"
#include "storage/kvdb/memtable.h"
#include "storage/kvdb/sstable.h"
#include "storage/mem_disk.h"
#include "support/alloc_counter.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

std::string key_of(int i) {
  char key[17];
  std::snprintf(key, sizeof(key), "%016d", i);
  return key;
}

TEST(KvdbAllocTest, WarmMemTableGetIsAllocationFree) {
  MemTable mt;
  for (int i = 0; i < 20000; i += 2) {
    mt.put(key_of(i), std::string(64, 'v'), static_cast<std::uint64_t>(i));
  }
  mt.del(key_of(100), 30000);
  // Hits, a tombstone and misses (odd keys), built before counting.
  std::vector<std::string> probes;
  for (int i = 0; i < 2000; ++i) probes.push_back(key_of(i * 7));
  probes.push_back(key_of(100));

  int found = 0;
  const std::uint64_t before = test_support::heap_allocations();
  for (const auto& k : probes) {
    if (mt.get(k, nullptr) == LookupState::kFound) ++found;
  }
  const std::uint64_t after = test_support::heap_allocations();
  EXPECT_GT(found, 500);
  EXPECT_LT(found, 1500);
  EXPECT_EQ(after - before, 0u) << "memtable get allocated";
}

TEST(KvdbAllocTest, WarmSstGetMissInLoadedBlockIsAllocationFree) {
  MemDisk disk{(64ull << 20) / 512};
  SimTime t = SimTime::zero();
  ASSERT_TRUE(ExtFs::mkfs(disk, t).ok());
  auto mount = ExtFs::mount(disk, t);
  ASSERT_TRUE(mount.ok());
  t = mount.done;
  SstBuilder builder(2000);
  for (int i = 0; i < 4000; i += 2) {
    MemEntry e;
    e.sequence = 1;
    e.value.assign(64, 'v');
    builder.add(key_of(i), e);
  }
  ASSERT_TRUE(builder.write_to(*mount.fs, t, "/alloc.sst").ok());
  auto open = SstReader::open(*mount.fs, t, "/alloc.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;

  // A missing key the bloom filter lets through, so the get reads and
  // scans a data block (a block read advances the clock).
  std::string miss;
  for (int i = 1; i < 4000 && miss.empty(); i += 2) {
    const SstGetResult g = sst.get(t, key_of(i));
    ASSERT_EQ(g.state, LookupState::kMissing);
    if (g.done > t) miss = key_of(i);
  }
  ASSERT_FALSE(miss.empty()) << "no bloom false positive among 2000 keys";
  // Warm: the page cache holds the block and the reader's buffer is
  // sized for the largest block.
  for (int i = 0; i < 4000; i += 2) sst.get(t, key_of(i));

  const std::uint64_t before = test_support::heap_allocations();
  const SstGetResult g = sst.get(t, miss);
  const std::uint64_t after = test_support::heap_allocations();
  EXPECT_EQ(g.err, Errno::kOk);
  EXPECT_EQ(g.state, LookupState::kMissing);
  EXPECT_GT(g.done, t);
  EXPECT_EQ(after - before, 0u) << "sst get of a missing key allocated";
}

}  // namespace
}  // namespace deepnote::storage::kvdb
