// Tracing for the benchmark's traced runs: a bounded in-memory span log
// and a timing decorator for storage::BlockDevice.
//
// Everything here sits outside the simulator. The benchmark wraps each
// device it hands to the engine or to ExtFs in a TimedDevice, times its
// own calls into each layer, and reads the simulator's public counters;
// nothing inside src/ knows it is being traced. With tracing off none of
// this is constructed.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/block_device.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` indexes the causing span in the same log
/// (-1 for a root); `count` is the number of calls a span aggregates
/// (device spans are one per step and worker, not one per call).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t worker = 0;
  std::uint64_t count = 1;
  std::int64_t busy_ns = 0;  ///< device spans: summed call time
};

/// Spans in memory, capped; written once when the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Index of the recorded span, or -1 when the log is full.
  std::int32_t add(const Span& span);
  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Device-call totals since the last collect_device_calls().
struct DeviceTotals {
  std::uint64_t calls = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t errors = 0;
  std::int64_t busy_ns = 0;   ///< summed over calls (all workers)
  std::int64_t union_ns = 0;  ///< wall time covered by at least one call
};

/// Forwards every call to `inner` unchanged and tallies its count and
/// host time in the calling thread's own slot (no shared writes, so the
/// engine's parallel waves need no locking).
class TimedDevice final : public deepnote::storage::BlockDevice {
 public:
  explicit TimedDevice(deepnote::storage::BlockDevice& inner)
      : inner_(inner) {}

  std::uint64_t total_sectors() const override {
    return inner_.total_sectors();
  }
  deepnote::storage::BlockIo read(deepnote::sim::SimTime now,
                                  std::uint64_t lba, std::uint32_t sectors,
                                  std::span<std::byte> out) override;
  deepnote::storage::BlockIo write(deepnote::sim::SimTime now,
                                   std::uint64_t lba, std::uint32_t sectors,
                                   std::span<const std::byte> in) override;
  deepnote::storage::BlockIo flush(deepnote::sim::SimTime now) override;
  deepnote::storage::BlockIo erase(deepnote::sim::SimTime now,
                                   std::uint64_t lba,
                                   std::uint32_t sectors) override;

 private:
  deepnote::storage::BlockDevice& inner_;
};

/// Drain every thread's device tallies into one total. When `log` is
/// given, also record one "device" span per worker that made calls,
/// parented to `parent`. Call only while no device call is in flight
/// (between engine steps, or between single-threaded phases).
DeviceTotals collect_device_calls(SpanLog* log = nullptr,
                                  std::int32_t parent = -1);

}  // namespace perfbench
