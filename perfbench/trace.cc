#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>

namespace perfbench {

namespace st = deepnote::storage;

std::int32_t SpanLog::add(const Span& span) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"worker\":%u,"
                 "\"count\":%llu,\"busy_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.worker,
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.busy_ns));
  }
  if (dropped_ > 0) {
    std::fprintf(f, "{\"dropped\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(f) == 0;
}

namespace {

/// One thread's device tallies. Only the owning thread writes it; the
/// collector reads it while no call is in flight.
struct Tally {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t errors = 0;
  std::int64_t busy_ns = 0;
  /// [start, end) of each call, in call (hence start) order.
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  bool in_use = false;
};

std::mutex g_mu;
std::deque<Tally> g_slots;  // deque: slot addresses stay valid

/// Returns the thread's slot to the pool at thread exit. Its unread
/// tallies stay in place; the next collect picks them up.
struct SlotHolder {
  Tally* slot = nullptr;
  ~SlotHolder() {
    if (slot != nullptr) {
      std::lock_guard<std::mutex> lock(g_mu);
      slot->in_use = false;
    }
  }
};
thread_local SlotHolder t_holder;

Tally& local_tally() {
  if (t_holder.slot == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    for (Tally& t : g_slots) {
      if (!t.in_use) {
        t_holder.slot = &t;
        break;
      }
    }
    if (t_holder.slot == nullptr) t_holder.slot = &g_slots.emplace_back();
    t_holder.slot->in_use = true;
  }
  return *t_holder.slot;
}

enum class Kind { kRead, kWrite, kFlush, kErase };

template <typename Call>
st::BlockIo timed(Kind kind, Call&& call) {
  Tally& t = local_tally();
  const std::int64_t t0 = now_ns();
  const st::BlockIo io = call();
  const std::int64_t t1 = now_ns();
  t.calls.emplace_back(t0, t1);
  t.busy_ns += t1 - t0;
  switch (kind) {
    case Kind::kRead: ++t.reads; break;
    case Kind::kWrite: ++t.writes; break;
    case Kind::kFlush: ++t.flushes; break;
    case Kind::kErase: break;  // counted in calls only
  }
  if (!io.ok()) ++t.errors;
  return io;
}

}  // namespace

st::BlockIo TimedDevice::read(deepnote::sim::SimTime now, std::uint64_t lba,
                              std::uint32_t sectors,
                              std::span<std::byte> out) {
  return timed(Kind::kRead,
               [&] { return inner_.read(now, lba, sectors, out); });
}

st::BlockIo TimedDevice::write(deepnote::sim::SimTime now, std::uint64_t lba,
                               std::uint32_t sectors,
                               std::span<const std::byte> in) {
  return timed(Kind::kWrite,
               [&] { return inner_.write(now, lba, sectors, in); });
}

st::BlockIo TimedDevice::flush(deepnote::sim::SimTime now) {
  return timed(Kind::kFlush, [&] { return inner_.flush(now); });
}

st::BlockIo TimedDevice::erase(deepnote::sim::SimTime now, std::uint64_t lba,
                               std::uint32_t sectors) {
  return timed(Kind::kErase,
               [&] { return inner_.erase(now, lba, sectors); });
}

DeviceTotals collect_device_calls(SpanLog* log, std::int32_t parent) {
  // Scratch for the union sweep, reused across collects.
  static std::vector<std::pair<std::int64_t, std::int64_t>> merged;
  merged.clear();

  DeviceTotals total;
  std::lock_guard<std::mutex> lock(g_mu);
  std::uint32_t worker = 0;
  for (Tally& t : g_slots) {
    if (!t.calls.empty()) {
      total.reads += t.reads;
      total.writes += t.writes;
      total.flushes += t.flushes;
      total.errors += t.errors;
      total.busy_ns += t.busy_ns;
      total.calls += t.calls.size();
      if (log != nullptr) {
        log->add({"device", t.calls.front().first, t.calls.back().second,
                  parent, worker, t.calls.size(), t.busy_ns});
      }
      const auto mid = static_cast<std::ptrdiff_t>(merged.size());
      merged.insert(merged.end(), t.calls.begin(), t.calls.end());
      std::inplace_merge(merged.begin(), merged.begin() + mid, merged.end());
      t.reads = t.writes = t.flushes = t.errors = 0;
      t.busy_ns = 0;
      t.calls.clear();
    }
    ++worker;
  }
  // Calls on one thread never overlap, but calls on different workers
  // do; the union is the wall time at least one call was running.
  std::int64_t covered_to = std::numeric_limits<std::int64_t>::min();
  for (const auto& [begin, end] : merged) {
    const std::int64_t from = std::max(begin, covered_to);
    if (end > from) {
      total.union_ns += end - from;
      covered_to = end;
    }
  }
  return total;
}

}  // namespace perfbench
