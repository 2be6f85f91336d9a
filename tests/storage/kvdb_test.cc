#include "storage/kvdb/db.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "storage/kvdb/memtable.h"
#include "storage/kvdb/skiplist.h"
#include "storage/mem_disk.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

// ---------------------------------------------------------------------------
// Skiplist

TEST(SkipListTest, InsertAndFind) {
  SkipList<int> list;
  list.insert("banana", 2);
  list.insert("apple", 1);
  list.insert("cherry", 3);
  auto c = list.cursor_at("apple");
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 1);
  c = list.cursor_at("b");
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.key(), "banana");
  EXPECT_FALSE(list.cursor_at("zebra").valid());
}

TEST(SkipListTest, OrderedTraversal) {
  SkipList<int> list;
  sim::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    list.insert(std::to_string(rng.next_u64() % 100000), i);
  }
  std::string prev;
  bool first = true;
  list.for_each([&](std::string_view k, const int&) {
    if (!first) {
      EXPECT_GE(k, prev);
    }
    prev = std::string(k);
    first = false;
  });
  EXPECT_EQ(list.size(), 500u);
}

// ---------------------------------------------------------------------------
// Memtable

TEST(MemTableTest, InternalKeyOrdersNewestFirst) {
  const std::string a = MemTable::internal_key("key", 5);
  const std::string b = MemTable::internal_key("key", 9);
  EXPECT_LT(b, a);  // higher sequence sorts first
  EXPECT_EQ(MemTable::user_key_of(a), "key");
  EXPECT_EQ(MemTable::sequence_of(a), 5u);
  EXPECT_EQ(MemTable::sequence_of(b), 9u);
}

TEST(MemTableTest, GetReturnsNewestVersion) {
  MemTable mt;
  mt.put("k", "old", 1);
  mt.put("k", "new", 2);
  std::string v;
  EXPECT_EQ(mt.get("k", &v), LookupState::kFound);
  EXPECT_EQ(v, "new");
}

TEST(MemTableTest, TombstoneShadowsOlderPut) {
  MemTable mt;
  mt.put("k", "value", 1);
  mt.del("k", 2);
  std::string v;
  EXPECT_EQ(mt.get("k", &v), LookupState::kDeleted);
}

TEST(MemTableTest, MissingKey) {
  MemTable mt;
  mt.put("aaa", "1", 1);
  mt.put("ccc", "3", 2);
  std::string v;
  EXPECT_EQ(mt.get("bbb", &v), LookupState::kMissing);
}

TEST(MemTableTest, BytesGrow) {
  MemTable mt;
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  mt.put("key", std::string(1000, 'v'), 1);
  EXPECT_GT(mt.approximate_bytes(), 1000u);
}

// Property test: MemTable::get (a hash-index probe) against two oracles —
// a reference map kept by the rule "the newest (user_key, seq) wins, and
// on a sequence tie the later insert wins", and the skiplist's own ordered
// seek (cursor_at), which is how point lookups used to be answered. The
// streams repeat keys, tie and reorder sequences, delete, use the empty
// key and keys that are prefixes of one another, and insert enough
// distinct keys to grow the index several times.
class MemTableOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemTableOracleTest, GetMatchesNewestEntry) {
  sim::Rng rng(GetParam());
  // Key pool: the empty key, every prefix of a few long keys, and many
  // fixed-width keys so the index grows well past its initial size.
  std::vector<std::string> pool = {""};
  for (int b = 0; b < 8; ++b) {
    std::string base;
    const int len = static_cast<int>(rng.uniform_int(8, 24));
    for (int i = 0; i < len; ++i) {
      base.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    for (int i = 1; i <= len; ++i) pool.push_back(base.substr(0, i));
  }
  for (int i = 0; i < 3000; ++i) {
    char key[17];
    std::snprintf(key, sizeof(key), "%016llu",
                  static_cast<unsigned long long>(rng.next_u64() % 1000000));
    pool.emplace_back(key);
  }

  struct Newest {
    std::uint64_t seq;
    bool deleted;
    std::string value;
  };
  std::map<std::string, Newest> model;
  MemTable mt(GetParam());

  const auto check = [&](const std::string& key) {
    std::string got;
    const LookupState st = mt.get(key, &got);
    // Ordered-seek oracle: the first internal key at or after
    // (key, max sequence) is the newest entry for `key`, if any.
    const MemTable::Cursor c = mt.cursor_at(key);
    LookupState seek = LookupState::kMissing;
    if (c.valid() && MemTable::user_key_of(c.internal_key()) == key) {
      seek = c.entry().type == EntryType::kDelete ? LookupState::kDeleted
                                                  : LookupState::kFound;
    }
    ASSERT_EQ(st, seek) << "key size " << key.size();
    if (st == LookupState::kFound) {
      ASSERT_EQ(got, c.entry().value);
    }

    const auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_EQ(st, LookupState::kMissing);
    } else if (it->second.deleted) {
      ASSERT_EQ(st, LookupState::kDeleted);
    } else {
      ASSERT_EQ(st, LookupState::kFound);
      ASSERT_EQ(got, it->second.value);
    }
    ASSERT_EQ(mt.get(key, nullptr), st);
  };

  constexpr int kOps = 12000;
  for (int op = 0; op < kOps; ++op) {
    const std::string& key =
        pool[static_cast<std::size_t>(rng.uniform_int(0, pool.size() - 1))];
    // Small sequence range: repeats, ties and older-after-newer inserts.
    const std::uint64_t seq = rng.uniform_int(1, kOps / 4);
    const bool del = rng.bernoulli(0.2);
    std::string value = "v";
    value += std::to_string(op);
    if (del) {
      mt.del(key, seq);
    } else {
      mt.put(key, value, seq);
    }
    auto [it, fresh] = model.try_emplace(key, Newest{seq, del, value});
    if (!fresh && seq >= it->second.seq) it->second = Newest{seq, del, value};
    if (op % 1000 == 999) {
      for (const auto& k : pool) ASSERT_NO_FATAL_FAILURE(check(k));
    }
  }
  for (const auto& k : pool) ASSERT_NO_FATAL_FAILURE(check(k));
  // Absent keys: extensions of stored keys and an unused range.
  for (int i = 0; i < 500; ++i) {
    ASSERT_NO_FATAL_FAILURE(check(pool[static_cast<std::size_t>(i)] + "~"));
    ASSERT_NO_FATAL_FAILURE(check("absent" + std::to_string(i)));
  }
  EXPECT_GT(model.size(), 2000u);  // the index grew from 64 to 4096+ slots
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemTableOracleTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 2024u));

TEST(MemTableTest, SequenceTieGoesToLaterInsert) {
  MemTable mt;
  mt.put("k", "first", 5);
  mt.put("k", "second", 5);
  std::string v;
  EXPECT_EQ(mt.get("k", &v), LookupState::kFound);
  EXPECT_EQ(v, "second");
  mt.del("k", 5);
  EXPECT_EQ(mt.get("k", &v), LookupState::kDeleted);
  mt.put("k", "older", 4);
  EXPECT_EQ(mt.get("k", &v), LookupState::kDeleted);
}

// ---------------------------------------------------------------------------
// Db on extfs on MemDisk

struct DbFixture {
  MemDisk disk{(512ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  std::unique_ptr<Db> db;
  SimTime t = SimTime::zero();

  explicit DbFixture(DbConfig cfg = small_config()) {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    auto open = Db::open(*fs, mount.done, cfg);
    EXPECT_TRUE(open.ok());
    db = std::move(open.db);
    t = open.done;
  }

  static DbConfig small_config() {
    DbConfig cfg;
    cfg.write_buffer_bytes = 256 << 10;  // flush often in tests
    cfg.l0_compaction_trigger = 4;
    return cfg;
  }

  void pump() {  // run pending background work inline
    while (db->flush_pending()) {
      auto r = db->do_flush(t);
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
  }

  void put(const std::string& k, const std::string& v) {
    auto r = db->put(t, k, v);
    if (r.err == Errno::kEAGAIN) {
      pump();
      r = db->put(t, k, v);
    }
    ASSERT_TRUE(r.ok());
    t = r.done;
    if (db->flush_pending()) pump();
  }

  std::string get(const std::string& k, bool* found = nullptr) {
    auto r = db->get(t, k);
    EXPECT_TRUE(r.ok());
    t = r.done;
    if (found) *found = r.found;
    return r.value;
  }
};

TEST(DbTest, PutGetRoundTrip) {
  DbFixture fx;
  fx.put("hello", "world");
  bool found = false;
  EXPECT_EQ(fx.get("hello", &found), "world");
  EXPECT_TRUE(found);
  fx.get("missing", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, OverwriteReturnsLatest) {
  DbFixture fx;
  fx.put("k", "v1");
  fx.put("k", "v2");
  EXPECT_EQ(fx.get("k"), "v2");
}

TEST(DbTest, DeleteHidesKey) {
  DbFixture fx;
  fx.put("k", "v");
  auto r = fx.db->del(fx.t, "k");
  ASSERT_TRUE(r.ok());
  fx.t = r.done;
  bool found = true;
  fx.get("k", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, GetFromFlushedSst) {
  DbFixture fx;
  for (int i = 0; i < 2000; ++i) {
    fx.put("key" + std::to_string(i), "value" + std::to_string(i));
  }
  auto fr = fx.db->flush(fx.t);
  ASSERT_TRUE(fr.ok());
  fx.t = fr.done;
  EXPECT_GT(fx.db->l0_count() + fx.db->l1_count(), 0u);
  // Values must come back from SSTs (memtable was flushed).
  bool found = false;
  EXPECT_EQ(fx.get("key0", &found), "value0");
  EXPECT_TRUE(found);
  EXPECT_EQ(fx.get("key1999", &found), "value1999");
  EXPECT_TRUE(found);
}

TEST(DbTest, CompactionMergesLevels) {
  DbFixture fx;
  // Enough data to trigger several flushes and at least one compaction.
  for (int i = 0; i < 30000; ++i) {
    fx.put("key" + std::to_string(i % 5000),
           "gen" + std::to_string(i / 5000));
  }
  auto fr = fx.db->flush(fx.t);
  ASSERT_TRUE(fr.ok());
  fx.t = fr.done;
  EXPECT_GT(fx.db->stats().compactions, 0u);
  EXPECT_LT(fx.db->l0_count(), 4u);
  // The newest generation wins for a sampled key.
  EXPECT_EQ(fx.get("key100"), "gen5");
}

TEST(DbTest, TombstonesSurviveFlushAndCompaction) {
  DbFixture fx;
  for (int i = 0; i < 3000; ++i) {
    fx.put("key" + std::to_string(i), "v");
  }
  auto r = fx.db->del(fx.t, "key7");
  ASSERT_TRUE(r.ok());
  fx.t = r.done;
  ASSERT_TRUE(fx.db->flush(fx.t).ok());
  bool found = true;
  fx.get("key7", &found);
  EXPECT_FALSE(found);
}

TEST(DbTest, RecoveryFromWal) {
  MemDisk disk{(512ull << 20) / 512};
  SimTime t = SimTime::zero();
  ASSERT_TRUE(ExtFs::mkfs(disk, t).ok());
  std::uint64_t last_seq = 0;
  {
    auto mount = ExtFs::mount(disk, t);
    ASSERT_TRUE(mount.ok());
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    Db& db = *open.db;
    t = open.done;
    for (int i = 0; i < 100; ++i) {
      auto r = db.put(t, "k" + std::to_string(i), "v" + std::to_string(i));
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
    last_seq = db.last_sequence();
    // No flush, no close: simulate the process dying. The fs (buffered)
    // must still be synced for the WAL to be on disk.
    ASSERT_TRUE(mount.fs->sync(t).ok());
  }
  {
    auto mount = ExtFs::mount(disk, t);
    ASSERT_TRUE(mount.ok());
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    EXPECT_EQ(open.wal_records_recovered, 100u);
    EXPECT_GE(open.db->last_sequence(), last_seq);
    auto g = open.db->get(open.done, "k42");
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "v42");
  }
}

TEST(DbTest, RecoveryFromSstsAndWal) {
  MemDisk disk{(512ull << 20) / 512};
  SimTime t = SimTime::zero();
  ASSERT_TRUE(ExtFs::mkfs(disk, t).ok());
  {
    auto mount = ExtFs::mount(disk, t);
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    Db& db = *open.db;
    t = open.done;
    for (int i = 0; i < 5000; ++i) {
      auto r = db.put(t, "k" + std::to_string(i), "flushed");
      if (r.err == Errno::kEAGAIN || db.flush_pending()) {
        t = db.do_flush(t).done;
        if (r.err == Errno::kEAGAIN) --i;
      }
      if (r.ok()) t = r.done;
    }
    // A few unflushed writes in the WAL on top.
    for (int i = 0; i < 10; ++i) {
      auto r = db.put(t, "fresh" + std::to_string(i), "wal");
      ASSERT_TRUE(r.ok());
      t = r.done;
    }
    ASSERT_TRUE(mount.fs->sync(t).ok());
  }
  {
    auto mount = ExtFs::mount(disk, t);
    auto open = Db::open(*mount.fs, mount.done, DbFixture::small_config());
    ASSERT_TRUE(open.ok());
    auto g = open.db->get(open.done, "k4321");
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "flushed");
    g = open.db->get(open.done, "fresh3");
    EXPECT_TRUE(g.found);
    EXPECT_EQ(g.value, "wal");
  }
}

TEST(DbTest, FatalOnDeviceFailureDuringFlush) {
  DbFixture fx;
  for (int i = 0; i < 100; ++i) {
    fx.put("k" + std::to_string(i), std::string(100, 'x'));
  }
  fx.disk.set_failing(true);
  // Force a flush against the dead device.
  auto fr = fx.db->flush(fx.t);
  EXPECT_FALSE(fr.ok());
  EXPECT_TRUE(fx.db->fatal());
  EXPECT_FALSE(fx.db->fatal_message().empty());
  // All subsequent operations fail.
  EXPECT_EQ(fx.db->put(fr.done, "x", "y").err, Errno::kEIO);
  EXPECT_EQ(fx.db->get(fr.done, "k1").err, Errno::kEIO);
}

TEST(DbTest, WriteStallWhenFlushPending) {
  DbFixture fx;
  // Fill two memtables without running the flush daemon.
  DbConfig cfg = DbFixture::small_config();
  const std::string big(8 << 10, 'z');
  int eagain = 0;
  for (int i = 0; i < 200; ++i) {
    auto r = fx.db->put(fx.t, "k" + std::to_string(i), big);
    if (r.err == Errno::kEAGAIN) {
      ++eagain;
      break;
    }
    ASSERT_TRUE(r.ok());
    fx.t = r.done;
  }
  EXPECT_GT(eagain, 0);
  EXPECT_GT(fx.db->stats().stalled_writes, 0u);
  // The flush daemon clears the backlog and writes flow again.
  fx.pump();
  EXPECT_TRUE(fx.db->put(fx.t, "after", "stall").ok());
}

TEST(DbTest, ReadsStallAfterGracePeriod) {
  DbConfig cfg = DbFixture::small_config();
  cfg.stall_grace = sim::Duration::from_seconds(1.0);
  DbFixture fx(cfg);
  const std::string big(8 << 10, 'z');
  // Fill one memtable to switch it, then do NOT flush.
  for (int i = 0; i < 100 && !fx.db->flush_pending(); ++i) {
    auto r = fx.db->put(fx.t, "k" + std::to_string(i), big);
    ASSERT_TRUE(r.ok());
    fx.t = r.done;
  }
  ASSERT_TRUE(fx.db->flush_pending());
  // Within the grace period reads work (and see the immutable memtable).
  auto g = fx.db->get(fx.t, "k0");
  EXPECT_TRUE(g.ok());
  EXPECT_TRUE(g.found);
  // Past the grace period the store wedges.
  g = fx.db->get(fx.t + sim::Duration::from_seconds(2.0), "k0");
  EXPECT_EQ(g.err, Errno::kEAGAIN);
  EXPECT_GT(fx.db->stats().stalled_reads, 0u);
}

TEST(DbTest, RandomizedAgainstStdMap) {
  DbFixture fx;
  std::map<std::string, std::string> model;
  sim::Rng rng(2024);
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 500));
    if (rng.bernoulli(0.7)) {
      std::string value = "v";
    value += std::to_string(op);
      fx.put(key, value);
      model[key] = value;
    } else {
      auto r = fx.db->del(fx.t, key);
      if (r.err == Errno::kEAGAIN) {
        fx.pump();
        r = fx.db->del(fx.t, key);
      }
      ASSERT_TRUE(r.ok());
      fx.t = r.done;
      model.erase(key);
      if (fx.db->flush_pending()) fx.pump();
    }
  }
  for (int i = 0; i <= 500; ++i) {
    const std::string key = "k" + std::to_string(i);
    bool found = false;
    const std::string value = fx.get(key, &found);
    const auto it = model.find(key);
    ASSERT_EQ(found, it != model.end()) << key;
    if (found) {
      EXPECT_EQ(value, it->second) << key;
    }
  }
}

}  // namespace
}  // namespace deepnote::storage::kvdb
