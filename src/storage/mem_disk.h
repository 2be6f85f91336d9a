// In-memory block device with constant latency; unit-test substrate and
// the "SSD-like" comparison device. Storage is sparse (chunked, allocated
// on first write) so huge devices cost nothing until touched.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/block_device.h"

namespace deepnote::storage {

class MemDisk final : public BlockDevice {
 public:
  MemDisk(std::uint64_t total_sectors,
          sim::Duration latency = sim::Duration::from_micros(20));

  std::uint64_t total_sectors() const override { return total_sectors_; }

  BlockIo read(sim::SimTime now, std::uint64_t lba,
               std::uint32_t sector_count, std::span<std::byte> out) override;
  BlockIo write(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count,
                std::span<const std::byte> in) override;
  BlockIo flush(sim::SimTime now) override;
  /// Instant TRIM-like no-op (see BlockDevice::erase), but counted and
  /// subject to the fault injector like every other op.
  BlockIo erase(sim::SimTime now, std::uint64_t lba,
                std::uint32_t sector_count) override;

  /// Fail every operation from now on (fault injection).
  void set_failing(bool failing) { failing_ = failing; }
  /// Fail matching operations after `count` more matching successes;
  /// `ops` is a fault_ops:: mask selecting which kinds count (and fail).
  /// Non-matching kinds keep working — e.g. fail_after(0,
  /// fault_ops::kWrites) models a drive that stops taking writes but
  /// still reads. Replaces any previous countdown.
  void fail_after(std::uint64_t count, unsigned ops = fault_ops::kAll);
  /// Disarm fail_after()/set_failing() and forget the recorded failure.
  void clear_fault();

  /// The first operation an armed injector failed, with its op index and
  /// kind, so fault-harness shrink reports can name the victim.
  const std::optional<FailedOp>& first_failure() const {
    return first_failure_;
  }

  std::uint64_t op_count() const { return ops_; }
  std::uint64_t read_count() const { return reads_; }
  std::uint64_t write_count() const { return writes_; }
  std::uint64_t flush_count() const { return flushes_; }
  std::uint64_t erase_count() const { return erases_; }

 private:
  bool should_fail(DiskOpKind kind, std::uint64_t lba,
                   std::uint32_t sector_count);

  static constexpr std::uint32_t kSectorsPerChunk = 256;  // 128 KiB

  std::uint64_t total_sectors_;
  sim::Duration latency_;
  std::unordered_map<std::uint64_t, std::vector<std::byte>> chunks_;
  bool failing_ = false;
  std::uint64_t fail_after_ = ~0ull;
  unsigned fail_ops_ = fault_ops::kAll;
  std::uint64_t matched_ops_ = 0;  ///< matching ops since fail_after()
  std::optional<FailedOp> first_failure_;
  std::uint64_t ops_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t erases_ = 0;
};

}  // namespace deepnote::storage
