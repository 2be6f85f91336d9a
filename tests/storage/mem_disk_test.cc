#include "storage/mem_disk.h"

#include <gtest/gtest.h>

#include <vector>

namespace deepnote::storage {
namespace {

using sim::Duration;
using sim::SimTime;

TEST(MemDiskTest, RoundTrip) {
  MemDisk disk(1024);
  std::vector<std::byte> in(8 * kBlockSectorSize, std::byte{0x5a});
  BlockIo w = disk.write(SimTime::zero(), 16, 8, in);
  ASSERT_TRUE(w.ok());
  std::vector<std::byte> out(in.size());
  BlockIo r = disk.read(w.complete, 16, 8, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, in);
}

TEST(MemDiskTest, ConstantLatency) {
  MemDisk disk(1024, Duration::from_micros(50));
  std::vector<std::byte> buf(kBlockSectorSize);
  BlockIo io = disk.read(SimTime::from_seconds(1), 0, 1, buf);
  EXPECT_EQ((io.complete - SimTime::from_seconds(1)).micros(), 50.0);
}

TEST(MemDiskTest, FailInjection) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.set_failing(true);
  EXPECT_FALSE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.write(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.flush(SimTime::zero()).ok());
  disk.set_failing(false);
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
}

TEST(MemDiskTest, FailAfterCountdown) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.fail_after(2);
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.flush(SimTime::zero()).ok());
}

TEST(MemDiskTest, FailAfterCountsFromArming) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  // Ops before arming do not count against the budget.
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  disk.fail_after(1);
  EXPECT_TRUE(disk.write(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.write(SimTime::zero(), 0, 1, buf).ok());
}

TEST(MemDiskTest, FailAfterFiltersByOpKind) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.fail_after(0, fault_ops::kWrites);
  // Reads and flushes keep working; writes die immediately.
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_TRUE(disk.flush(SimTime::zero()).ok());
  EXPECT_FALSE(disk.write(SimTime::zero(), 4, 1, buf).ok());
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
}

TEST(MemDiskTest, FirstFailureReportsOpIndexAndKind) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.fail_after(1, fault_ops::kWrites);
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());    // op 0
  EXPECT_TRUE(disk.write(SimTime::zero(), 8, 1, buf).ok());   // op 1
  EXPECT_FALSE(disk.write(SimTime::zero(), 16, 2,
                          std::vector<std::byte>(2 * kBlockSectorSize))
                   .ok());                                    // op 2
  ASSERT_TRUE(disk.first_failure().has_value());
  const FailedOp& f = *disk.first_failure();
  EXPECT_EQ(f.op_index, 2u);
  EXPECT_EQ(f.kind, DiskOpKind::kWrite);
  EXPECT_EQ(f.lba, 16u);
  EXPECT_EQ(f.sector_count, 2u);
  EXPECT_STREQ(disk_op_name(f.kind), "write");
  // Later failures do not overwrite the first record.
  EXPECT_FALSE(disk.write(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_EQ(disk.first_failure()->lba, 16u);
}

TEST(MemDiskTest, ClearFaultDisarmsAndForgets) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.fail_after(0);
  EXPECT_FALSE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  disk.clear_fault();
  EXPECT_TRUE(disk.read(SimTime::zero(), 0, 1, buf).ok());
  EXPECT_FALSE(disk.first_failure().has_value());
}

TEST(MemDiskTest, PerKindOpCounters) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize);
  disk.read(SimTime::zero(), 0, 1, buf);
  disk.write(SimTime::zero(), 0, 1, buf);
  disk.write(SimTime::zero(), 1, 1, buf);
  disk.flush(SimTime::zero());
  EXPECT_EQ(disk.read_count(), 1u);
  EXPECT_EQ(disk.write_count(), 2u);
  EXPECT_EQ(disk.flush_count(), 1u);
  EXPECT_EQ(disk.op_count(), 4u);
}

TEST(MemDiskTest, EraseIsCountedAndInjectable) {
  MemDisk disk(1024);
  std::vector<std::byte> buf(kBlockSectorSize, std::byte{0x3c});
  disk.write(SimTime::zero(), 8, 1, buf);
  // No erase geometry: instant, and the data stays.
  const BlockIo io = disk.erase(SimTime::from_millis(1.0), 8, 4);
  EXPECT_TRUE(io.ok());
  EXPECT_EQ(io.complete, SimTime::from_millis(1.0));
  std::vector<std::byte> out(kBlockSectorSize);
  disk.read(SimTime::zero(), 8, 1, out);
  EXPECT_EQ(out, buf);
  EXPECT_EQ(disk.erase_count(), 1u);
  EXPECT_EQ(disk.op_count(), 3u);

  // Erases are their own fault_ops kind: failing them spares the rest.
  disk.fail_after(0, fault_ops::kErases);
  EXPECT_TRUE(disk.read(SimTime::zero(), 8, 1, out).ok());
  EXPECT_FALSE(disk.erase(SimTime::zero(), 16, 2).ok());
  ASSERT_TRUE(disk.first_failure().has_value());
  EXPECT_EQ(disk.first_failure()->kind, DiskOpKind::kErase);
  EXPECT_EQ(disk.first_failure()->lba, 16u);
  EXPECT_EQ(disk.erase_count(), 2u);
}

TEST(MemDiskTest, BoundsChecked) {
  MemDisk disk(10);
  std::vector<std::byte> buf(kBlockSectorSize);
  EXPECT_THROW(disk.read(SimTime::zero(), 10, 1, buf), std::out_of_range);
  EXPECT_THROW(disk.write(SimTime::zero(), 9, 2,
                          std::vector<std::byte>(2 * kBlockSectorSize)),
               std::out_of_range);
  EXPECT_THROW(disk.erase(SimTime::zero(), 8, 4), std::out_of_range);
}

}  // namespace
}  // namespace deepnote::storage
