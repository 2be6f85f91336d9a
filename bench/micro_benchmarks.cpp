// google-benchmark microbenchmarks for the substrates: how fast the
// simulator itself runs (host wall-clock per simulated operation).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "acoustics/absorption.h"
#include "attacked_fleet.h"
#include "cluster/balancer.h"
#include "cluster/engine.h"
#include "cluster/node.h"
#include "cluster/traffic.h"
#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "hdd/drive.h"
#include "hdd/sector_store.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task_pool.h"
#include "sim/timer_wheel.h"
#include "sim/trial_runner.h"
#include "storage/extfs.h"
#include "storage/fault_harness.h"
#include "storage/fault_workloads.h"
#include "storage/kvdb/db.h"
#include "storage/kvdb/memtable.h"
#include "storage/kvdb/sstable.h"
#include "storage/mem_disk.h"
#include "workload/db_bench.h"

using namespace deepnote;

// ---------------------------------------------------------------------------
// sim

static void BM_RngNextDouble(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_RngNextDouble);

// The queue persists across iterations, matching how the simulator uses
// it: one queue, warm, for an entire run. Each iteration schedules a
// batch of kEventBatch events at scattered times and drains them; the
// batch is sized to the pending-event depth a live trial sustains
// (tens of actor daemons and drive/fs timers, not thousands).
constexpr int kEventBatch = 64;
static void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue q;
  std::int64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEventBatch; ++i) {
      q.schedule(sim::SimTime(base + (i * 7919) % 1009), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
    base += 1009;
  }
  state.SetItemsProcessed(state.iterations() * kEventBatch);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Schedule/pop with an actor-sized capture (~40 bytes): the shape every
// daemon/timeout event in the workload layer has. Small enough for the
// event kernel's inline callable storage; large enough that
// std::function would heap-allocate it.
static void BM_EventQueueScheduleAndPopCapture(benchmark::State& state) {
  struct Ctx {
    std::uint64_t a = 1, b = 2;
    void* p = nullptr;
    void* q = nullptr;
  } ctx;
  std::uint64_t sink = 0;
  sim::EventQueue q;
  std::int64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEventBatch; ++i) {
      q.schedule(sim::SimTime(base + (i * 7919) % 1009),
                 [ctx, &sink] { sink += ctx.a + ctx.b; });
    }
    while (!q.empty()) q.pop().fn();
    base += 1009;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEventBatch);
}
BENCHMARK(BM_EventQueueScheduleAndPopCapture);

// Oversized capture (80 bytes): exercises the heap-fallback path of the
// event callable.
static void BM_EventQueueLargeCapture(benchmark::State& state) {
  struct Big {
    std::uint64_t words[10] = {};
  } big;
  big.words[0] = 7;
  std::uint64_t sink = 0;
  sim::EventQueue q;
  std::int64_t base = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEventBatch; ++i) {
      q.schedule(sim::SimTime(base + (i * 7919) % 1009),
                 [big, &sink] { sink += big.words[0]; });
    }
    while (!q.empty()) q.pop().fn();
    base += 1009;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEventBatch);
}
BENCHMARK(BM_EventQueueLargeCapture);

// Interleaved schedule/cancel/pop: the pattern the drive's timeout and
// retry timers produce (most timers are cancelled before they fire).
static void BM_EventQueueScheduleCancelPop(benchmark::State& state) {
  std::uint64_t sink = 0;
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  std::int64_t base = 0;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < kEventBatch; ++i) {
      ids.push_back(q.schedule(sim::SimTime(base + (i * 7919) % 1009),
                               [&sink] { ++sink; }));
    }
    for (int i = 0; i < kEventBatch; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
    while (!q.empty()) q.pop().fn();
    base += 1009;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEventBatch);
}
BENCHMARK(BM_EventQueueScheduleCancelPop);

// Latency samples are drawn up front so the loop times add_ns alone,
// not the RNG and log behind rng.exponential. Continuous: exponential
// waits around 1 ms, no two alike. Repeats: a serving-shaped mix where
// 60% of samples are whole multiples of a constant 20 us device service
// time (k requests queued ahead) and the rest are continuous waits, so
// runs of equal values reach the histogram's last-bucket memo.
constexpr std::size_t kLatencySamples = 4096;  // power of two, fits L1

static std::vector<std::int64_t> latency_samples(bool repeats) {
  sim::Rng rng(2);
  std::vector<std::int64_t> samples(kLatencySamples);
  for (std::int64_t& ns : samples) {
    ns = repeats && rng.bernoulli(0.6)
             ? 20000 * rng.uniform_int(1, 4)
             : static_cast<std::int64_t>(rng.exponential(1e6));
  }
  return samples;
}

static void run_latency_histogram_add(benchmark::State& state,
                                      const std::vector<std::int64_t>& in) {
  sim::LatencyHistogram h;
  std::size_t i = 0;
  for (auto _ : state) {
    h.add_ns(in[i++ & (kLatencySamples - 1)]);
  }
  benchmark::DoNotOptimize(h.count());
}

static void BM_LatencyHistogramAdd(benchmark::State& state) {
  run_latency_histogram_add(state, latency_samples(/*repeats=*/false));
}
BENCHMARK(BM_LatencyHistogramAdd);

static void BM_LatencyHistogramAddRepeats(benchmark::State& state) {
  run_latency_histogram_add(state, latency_samples(/*repeats=*/true));
}
BENCHMARK(BM_LatencyHistogramAddRepeats);

// NodeServer-style per-request deadlines: every 1 ms step arms a batch
// of deadlines 10-100 ms out, cancels the 7 of 8 whose requests finish
// in time, and advances the wheel one step, firing the rest as they
// come due. Items are armed timers.
static void BM_TimerWheelScheduleAdvance(benchmark::State& state) {
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kOffsets = 4096;  // power of two
  sim::Rng rng(5);
  std::vector<std::int64_t> offsets(kOffsets);
  for (std::int64_t& ns : offsets) {
    ns = rng.uniform_int(10'000'000, 100'000'000);
  }
  sim::TimerWheel wheel;
  std::vector<sim::TimerWheel::TimerId> ids(kBatch);
  std::vector<sim::TimerWheel::Expired> fired;
  std::int64_t now = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::int64_t deadline = now + offsets[k++ & (kOffsets - 1)];
      ids[i] = wheel.schedule(sim::SimTime{deadline}, i);
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      if (i % 8 != 0) wheel.cancel(ids[i]);
    }
    now += 1'000'000;
    fired.clear();
    wheel.advance(sim::SimTime{now}, fired);
    benchmark::DoNotOptimize(fired.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TimerWheelScheduleAdvance);

// Per-task overhead of fanning a batch through the trial-execution pool
// (batch setup + index claiming + completion handshake; the tasks are
// no-ops). Real trials cost milliseconds to seconds, so dispatch must
// stay in the microsecond range per batch.
static void BM_TaskPoolDispatch(benchmark::State& state) {
  sim::TaskPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.run_indexed(64, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(2)->Arg(4);

static void BM_TrialSeedDerivation(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trial_seed(0x5eef, i++));
  }
}
BENCHMARK(BM_TrialSeedDerivation);

// ---------------------------------------------------------------------------
// acoustics / structure

static void BM_AbsorptionAinslieMcColm(benchmark::State& state) {
  const auto water = acoustics::WaterConditions::ocean();
  double f = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acoustics::absorption_db_per_km(
        acoustics::AbsorptionModel::kAinslieMcColm, f, water));
    f = f < 50000.0 ? f * 1.01 : 100.0;
  }
}
BENCHMARK(BM_AbsorptionAinslieMcColm);

static void BM_FullAttackChainEvaluation(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  double f = 100.0;
  for (auto _ : state) {
    attack.frequency_hz = f;
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    f = f < 16000.0 ? f + 37.0 : 100.0;
  }
}
BENCHMARK(BM_FullAttackChainEvaluation);

// Cold vs memoized attack-chain evaluation: the cold path walks source ->
// water -> enclosure -> mount -> servo every call (cache wiped each
// iteration); the memoized path revisits tones a sweep already touched.
static void BM_AttackChainCold(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  double f = 100.0;
  for (auto _ : state) {
    bed.clear_analysis_cache();
    attack.frequency_hz = f;
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    f = f < 16000.0 ? f + 37.0 : 100.0;
  }
}
BENCHMARK(BM_AttackChainCold);

static void BM_AttackChainMemoized(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  // Warm the cache with a Fig. 2-sized tone grid, then measure hits.
  std::vector<double> tones;
  for (double f = 100.0; f <= 8000.0; f += 250.0) tones.push_back(f);
  for (double f : tones) {
    attack.frequency_hz = f;
    bed.predicted_offtrack_nm(attack);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    attack.frequency_hz = tones[i];
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    i = (i + 1) % tones.size();
  }
}
BENCHMARK(BM_AttackChainMemoized);

// ---------------------------------------------------------------------------
// hdd

static void BM_HddSequentialWrite4k(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  hdd::Hdd drive(spec.hdd);
  std::vector<std::byte> block(4096, std::byte{0x5a});
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = drive.write(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddSequentialWrite4k);

static void BM_HddSequentialRead4k(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  hdd::Hdd drive(spec.hdd);
  std::vector<std::byte> block(4096);
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = drive.read(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddSequentialRead4k);

static void BM_HddWriteUnderAttack(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  core::Testbed bed(spec);
  core::AttackConfig attack;
  attack.distance_m = 0.15;  // partial degradation: retries sampled
  bed.apply_attack(sim::SimTime::zero(), attack);
  std::vector<std::byte> block(4096, std::byte{0x5a});
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = bed.drive().write(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddWriteUnderAttack);

// Sector-store span I/O across span sizes (1 sector .. a full 256-sector
// chunk): measures the per-sector cost of the backing store that every
// media access and cache-overlay read pays.
static void BM_SectorStoreWrite(benchmark::State& state) {
  const auto sectors = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kDeviceSectors = 1ull << 18;  // 128 MiB
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> buf(
      static_cast<std::size_t>(sectors) * hdd::kSectorSize, std::byte{0x5a});
  std::uint64_t lba = 0;
  for (auto _ : state) {
    store.write(lba, sectors, buf);
    lba += sectors;
    if (lba + sectors > kDeviceSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          sectors * hdd::kSectorSize);
}
BENCHMARK(BM_SectorStoreWrite)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_SectorStoreRead(benchmark::State& state) {
  const auto sectors = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kDeviceSectors = 1ull << 16;  // 32 MiB
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> fill(
      static_cast<std::size_t>(kDeviceSectors) * hdd::kSectorSize,
      std::byte{0x42});
  store.write(0, static_cast<std::uint32_t>(kDeviceSectors), fill);
  std::vector<std::byte> buf(
      static_cast<std::size_t>(sectors) * hdd::kSectorSize);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    store.read(lba, sectors, buf);
    lba += sectors;
    if (lba + sectors > kDeviceSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          sectors * hdd::kSectorSize);
}
BENCHMARK(BM_SectorStoreRead)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_SectorStoreAnyWritten(benchmark::State& state) {
  constexpr std::uint64_t kDeviceSectors = 1ull << 18;
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> one(hdd::kSectorSize, std::byte{1});
  store.write(kDeviceSectors - 1, 1, one);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.any_written(lba, 2048));
    lba = (lba + 2048) % (kDeviceSectors - 2048);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SectorStoreAnyWritten);

// ---------------------------------------------------------------------------
// storage

// Puts of 100k distinct keys into a table that starts empty; the table
// is rebuilt (untimed) after every 100k, so each run times the same
// growth from 0 to 100k entries however many iterations it makes.
static void BM_MemTablePut(benchmark::State& state) {
  constexpr std::uint64_t kPutsPerTable = 100000;
  auto mt = std::make_unique<storage::kvdb::MemTable>();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    if (seq == kPutsPerTable) {
      state.PauseTiming();
      mt = std::make_unique<storage::kvdb::MemTable>();
      seq = 0;
      state.ResumeTiming();
    }
    ++seq;
    mt->put("key" + std::to_string(seq % kPutsPerTable), "value", seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTablePut);

static void BM_MemTableGet(benchmark::State& state) {
  storage::kvdb::MemTable mt;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    mt.put("key" + std::to_string(i), "value", i + 1);
  }
  std::string v;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mt.get("key" + std::to_string(i++ % 100000), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet);

// The paper_kvdb read shape: 16-byte keys, 64-byte values, random order.
static std::string bench_kv_key(std::uint64_t i) {
  char key[17];
  std::snprintf(key, sizeof(key), "%016llu",
                static_cast<unsigned long long>(i));
  return key;
}

// Pre-generated random lookups over a keyspace in which every third key
// is absent from the store (~1/3 misses).
static std::vector<std::string> bench_kv_lookups(std::uint64_t keyspace) {
  sim::Rng rng(11);
  std::vector<std::string> keys(1 << 16);
  for (auto& k : keys) k = bench_kv_key(rng.next_u64() % keyspace);
  return keys;
}

static void BM_MemTableGetRandom(benchmark::State& state) {
  constexpr std::uint64_t kKeyspace = 195000;  // 130k stored, 65k absent
  storage::kvdb::MemTable mt;
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = 0; i < kKeyspace; ++i) {
    if (i % 3 != 2) order.push_back(i);
  }
  sim::Rng rng(7);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64() % i]);
  }
  const std::string value(64, 'v');
  std::uint64_t seq = 0;
  for (const std::uint64_t i : order) mt.put(bench_kv_key(i), value, ++seq);
  const std::vector<std::string> keys = bench_kv_lookups(kKeyspace);
  std::string v;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mt.get(keys[i++ & (keys.size() - 1)], &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGetRandom);

static void BM_SstReaderGet(benchmark::State& state) {
  constexpr std::uint64_t kKeyspace = 60000;  // 40k stored, 20k absent
  storage::MemDisk disk((256ull << 20) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  t = mount.done;
  storage::kvdb::SstBuilder builder(kKeyspace);
  storage::kvdb::MemEntry e;
  e.sequence = 1;
  e.value.assign(64, 'v');
  for (std::uint64_t i = 0; i < kKeyspace; ++i) {
    if (i % 3 != 2) builder.add(bench_kv_key(i), e);
  }
  builder.write_to(*mount.fs, t, "/bench.sst");
  auto open = storage::kvdb::SstReader::open(*mount.fs, t, "/bench.sst");
  const std::vector<std::string> keys = bench_kv_lookups(kKeyspace);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        open.reader->get(t, keys[i++ & (keys.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SstReaderGet);

static void BM_ExtFsBufferedWrite4k(benchmark::State& state) {
  storage::MemDisk disk((1ull << 30) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  std::uint32_t ino = 0;
  t = mount.fs->create(mount.done, "/bench", &ino).done;
  std::vector<std::byte> block(4096, std::byte{0x5a});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    t = mount.fs->write(t, ino, offset, block).done;
    offset += 4096;
    if (offset > (512ull << 20)) {
      state.PauseTiming();
      mount.fs->truncate(t, ino, 0);
      offset = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtFsBufferedWrite4k);

static void BM_KvdbPut(benchmark::State& state) {
  storage::MemDisk disk((2ull << 30) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  storage::kvdb::DbConfig cfg;
  cfg.write_buffer_bytes = 64ull << 20;
  auto open = storage::kvdb::Db::open(*mount.fs, mount.done, cfg);
  storage::kvdb::Db& db = *open.db;
  t = open.done;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = db.put(t, "key" + std::to_string(i++), "value-payload-64b");
    if (r.err == storage::Errno::kEAGAIN || db.flush_pending()) {
      state.PauseTiming();
      t = db.do_flush(t).done;
      state.ResumeTiming();
      continue;
    }
    t = r.done;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvdbPut);

// ---------------------------------------------------------------------------
// workload

// Host cost of the sequential preload every Table-2 trial starts with:
// key/value formatting + WAL append + memtable insert per op, with the
// filesystem daemons ticked alongside. Items are db ops.
static void BM_DbBenchFillseq(benchmark::State& state) {
  // Fresh store per iteration: this is the Table-2 setup phase exactly —
  // a sequential preload of an empty db. Store construction is excluded
  // from timing.
  constexpr std::uint64_t kKeysPerIter = 10000;
  for (auto _ : state) {
    state.PauseTiming();
    storage::MemDisk disk((2ull << 30) / 512);
    sim::SimTime t = sim::SimTime::zero();
    storage::ExtFs::mkfs(disk, t);
    auto mount = storage::ExtFs::mount(disk, t);
    storage::kvdb::DbConfig cfg;
    cfg.write_buffer_bytes = 64ull << 20;
    auto open = storage::kvdb::Db::open(*mount.fs, mount.done, cfg);
    workload::DbBench bench(*mount.fs, *open.db);
    workload::DbBenchConfig bcfg;
    t = open.done;
    state.ResumeTiming();
    t = bench.fillseq(t, kKeysPerIter, bcfg);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kKeysPerIter));
}
BENCHMARK(BM_DbBenchFillseq);

// ---------------------------------------------------------------------------
// crash-consistency harness

// Cost of replaying a single fault schedule end to end: build the
// workload, run it against the faulted device, crash, run the
// consistency checker. This is the unit the exhaustive explorer fans
// out, so its cost bounds how large a workload stays explorable.
static void BM_FaultScheduleReplay(benchmark::State& state) {
  auto factory = storage::journal_pair_workload();
  const std::uint64_t index =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto result = storage::replay_schedule(factory, 0x5eed, index);
    benchmark::DoNotOptimize(result.passed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultScheduleReplay)->Arg(1)->Arg(22);

// Full exhaustive exploration (every cut point x every fault variant)
// of the journal pair workload on the trial pool. Items = schedules.
static void BM_FaultExhaustiveExploration(benchmark::State& state) {
  auto factory = storage::journal_pair_workload();
  storage::ExploreOptions opts;
  opts.jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t schedules = 0;
  for (auto _ : state) {
    auto report = storage::explore(factory, opts);
    schedules += report.schedules_run;
    benchmark::DoNotOptimize(report.failures.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(schedules));
}
BENCHMARK(BM_FaultExhaustiveExploration)->Arg(1)->Arg(4);

// ---------------------------------------------------------------------------
// cluster

// Pure replica-set computation: hash a key to R nodes under each
// placement policy. This sits on every request the balancer serves.
static void BM_PlacementReplicas(benchmark::State& state) {
  const cluster::ClusterTopology topo;
  const cluster::PlacementMap placement(
      topo, static_cast<cluster::PlacementPolicy>(state.range(0)),
      /*replication=*/3);
  std::vector<cluster::NodeId> replicas;
  std::uint64_t key = 0;
  for (auto _ : state) {
    placement.replicas(key++, replicas);
    benchmark::DoNotOptimize(replicas.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementReplicas)
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kSamePod))
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kCrossPod))
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kRackAware));

// One Zipf key from the fleet_10k shape (1M keys, theta 0.99): the
// alias table is 12 MB, so most samples miss the cache on their bucket.
static const cluster::ZipfAliasSampler& fleet_zipf() {
  static const cluster::ZipfAliasSampler zipf(1000000, 0.99);
  return zipf;
}

static void BM_ZipfAliasNext(benchmark::State& state) {
  const cluster::ZipfAliasSampler& zipf = fleet_zipf();
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfAliasNext);

// The engine's open-loop shape: draw a batch of keys (one fleet_10k
// epoch is ~2000) with a prefetch per bucket, then resolve them all.
// Items are keys.
static void BM_ZipfAliasDrawResolve(benchmark::State& state) {
  const cluster::ZipfAliasSampler& zipf = fleet_zipf();
  sim::Rng rng(5);
  std::vector<cluster::ZipfAliasSampler::Draw> draws(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (auto& d : draws) {
      d = zipf.draw(rng);
      zipf.prefetch(d);
    }
    for (const auto& d : draws) benchmark::DoNotOptimize(zipf.resolve(d));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZipfAliasDrawResolve)->Arg(2000);

// Host cost of one replicated read through the whole serving path:
// placement, health ranking, node I/O, detector update, control-loop
// reaction. MemDisk members isolate the balancer's own overhead from
// the HDD model. Items are requests.
static void BM_ClusterBalancerRead(benchmark::State& state) {
  const cluster::ClusterTopology topo{.pods = 3, .bays_per_pod = 1};
  storage::MemDisk d0(16384), d1(16384), d2(16384);
  cluster::ClusterNode n0(0, 0, 0, d0), n1(1, 1, 0, d1), n2(2, 2, 0, d2);
  cluster::BalancerConfig config;
  config.objects = 1000;
  cluster::Balancer balancer(topo, {&n0, &n1, &n2}, config);
  std::vector<std::byte> buf(static_cast<std::size_t>(config.object_sectors) *
                             storage::kBlockSectorSize);
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t key = 0;
  for (auto _ : state) {
    const auto r = balancer.read(t, key++ % config.objects, buf);
    benchmark::DoNotOptimize(r.ok);
    t = r.complete;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterBalancerRead);

// The tentpole end-to-end number: 1000 nodes (200 pods x 5 bays),
// 3-way cross-pod replication, a 1M-key Zipf read/write mix through the
// sharded epoch engine, with one pod insonified for the middle two
// thirds of the timeline. Every iteration is a complete availability
// trial on a pristine cluster; fixture construction (testbeds, alias
// table, placement) is excluded from timing so the measured quantity is
// the serving loop itself. Items are requests served.
static void BM_ClusterAvailability(benchmark::State& state) {
  const cluster::CellSpec spec =
      bench::attacked_fleet_spec(/*pods=*/200, /*rate_per_s=*/400.0);

  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::Cell cell(spec);
    state.ResumeTiming();

    const cluster::EngineReport report = cell.run();
    benchmark::DoNotOptimize(report.stats.reads);
    requests += static_cast<std::int64_t>(report.traffic.requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClusterAvailability);

// The scale-out number: the same attacked availability trial on 10,000
// nodes (2000 pods x 5 bays) with the serving data plane enabled —
// bounded-FIFO queues, deadline timer wheels and 640 closed-loop
// clients in front of every device. Arrival rate scales with the fleet
// so per-node load matches BM_ClusterAvailability; what this measures
// is whether any engine cost grows with fleet size rather than with
// traffic (reset walks, stats aggregation, depth sampling all must
// not). Fixture construction is excluded as above. Items are requests.
static void BM_ClusterServing10k(benchmark::State& state) {
  cluster::CellSpec spec =
      bench::attacked_fleet_spec(/*pods=*/2000, /*rate_per_s=*/4000.0);
  spec.engine.serving.enabled = true;
  spec.engine.serving.server.queue_limit = 8;
  spec.engine.serving.clients = 640;

  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::Cell cell(spec);
    state.ResumeTiming();

    const cluster::EngineReport report = cell.run();
    benchmark::DoNotOptimize(report.serving.legs_served);
    requests += static_cast<std::int64_t>(report.traffic.requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClusterServing10k);

// The closed-loop client population alone, at the overload_1k fleet's
// size and key mix: 273k clients at 120k req/s aggregate (~2.3 s mean
// think time) over 20k near-uniform keys, harvested in 50 ms epochs,
// every issue completing 5 ms later, with one in ten shed and retried.
// Items are issues.
static void BM_ClosedLoopCollectComplete(benchmark::State& state) {
  constexpr std::size_t kClients = 273066;
  static const cluster::ZipfAliasSampler zipf(20000, 0.01);
  cluster::TrafficConfig traffic;
  traffic.arrival_rate_per_s = 120000.0;
  traffic.read_fraction = 0.9;
  traffic.seed = 3;
  cluster::resilience::BackoffConfig backoff;
  backoff.base = sim::Duration::from_millis(10.0);
  cluster::ClosedLoopPopulation population;
  population.reset(traffic, kClients, backoff, nullptr, sim::SimTime::zero());
  std::vector<cluster::ClientIssue> issues;
  sim::SimTime horizon = sim::SimTime::zero();
  std::uint64_t issued = 0;
  for (auto _ : state) {
    horizon = horizon + sim::Duration::from_millis(50.0);
    issues.clear();
    population.collect_due(horizon, zipf, issues);
    for (const cluster::ClientIssue& issue : issues) {
      population.complete(issue.client,
                          issue.at + sim::Duration::from_millis(5.0),
                          issue.key % 10 == 0 ? cluster::OutcomeKind::kShed
                                              : cluster::OutcomeKind::kServed);
    }
    issued += issues.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_ClosedLoopCollectComplete);

BENCHMARK_MAIN();
