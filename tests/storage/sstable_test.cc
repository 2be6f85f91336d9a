#include "storage/kvdb/sstable.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/rng.h"
#include "storage/kvdb/bloom.h"
#include "storage/mem_disk.h"

namespace deepnote::storage::kvdb {
namespace {

using sim::SimTime;

// ---------------------------------------------------------------------------
// Bloom filter

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.add("key" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.may_contain("key" + std::to_string(i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.may_contain("absent" + std::to_string(i))) ++fp;
  }
  // 10 bits/key: ~1% expected; allow 3%.
  EXPECT_LT(fp, 300);
}

TEST(BloomTest, SerializeRoundTrip) {
  BloomFilter bloom(100);
  for (int i = 0; i < 100; ++i) bloom.add("x" + std::to_string(i));
  const auto bytes = bloom.serialize();
  const BloomFilter restored =
      BloomFilter::deserialize(bytes.data(), bytes.size());
  EXPECT_EQ(restored.num_probes(), bloom.num_probes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.may_contain("x" + std::to_string(i)));
  }
}

// ---------------------------------------------------------------------------
// SST build + read

struct SstFixture {
  MemDisk disk{(256ull << 20) / 512};
  std::unique_ptr<ExtFs> fs;
  SimTime t = SimTime::zero();

  SstFixture() {
    EXPECT_TRUE(ExtFs::mkfs(disk, t).ok());
    auto mount = ExtFs::mount(disk, t);
    EXPECT_TRUE(mount.ok());
    fs = std::move(mount.fs);
    t = mount.done;
  }
};

MemEntry put_entry(std::string value, std::uint64_t seq) {
  MemEntry e;
  e.type = EntryType::kPut;
  e.sequence = seq;
  e.value = std::move(value);
  return e;
}

TEST(SstTest, BuildWriteOpenGet) {
  SstFixture fx;
  SstBuilder builder(100);
  // Internal order: ascending user key.
  for (int i = 100; i < 200; ++i) {
    builder.add("key" + std::to_string(i),
                put_entry("val" + std::to_string(i), 10));
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/test.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/test.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;
  EXPECT_EQ(sst.entry_count(), 100u);
  EXPECT_EQ(sst.smallest(), "key100");
  EXPECT_EQ(sst.largest(), "key199");
  EXPECT_EQ(sst.max_sequence(), 10u);

  auto g = sst.get(fx.t, "key150");
  EXPECT_EQ(g.state, LookupState::kFound);
  EXPECT_EQ(g.value, "val150");
  g = sst.get(fx.t, "key999");
  EXPECT_EQ(g.state, LookupState::kMissing);
  g = sst.get(fx.t, "aaa");  // below smallest
  EXPECT_EQ(g.state, LookupState::kMissing);
}

TEST(SstTest, TombstonesComeBackAsDeleted) {
  SstFixture fx;
  SstBuilder builder(10);
  MemEntry dead;
  dead.type = EntryType::kDelete;
  dead.sequence = 5;
  builder.add("gone", dead);
  builder.add("here", put_entry("v", 4));
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/t.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/t.sst");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.reader->get(fx.t, "gone").state, LookupState::kDeleted);
  EXPECT_EQ(open.reader->get(fx.t, "here").state, LookupState::kFound);
}

TEST(SstTest, MultiBlockFilesUseIndex) {
  SstFixture fx;
  SstBuilder builder(5000);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    const std::string value(100, static_cast<char>('a' + i % 26));
    builder.add(key, put_entry(value, 1));
    model[key] = value;
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/big.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/big.sst");
  ASSERT_TRUE(open.ok());
  sim::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d",
                  static_cast<int>(rng.uniform_int(0, 4999)));
    auto g = open.reader->get(fx.t, key);
    ASSERT_EQ(g.state, LookupState::kFound) << key;
    EXPECT_EQ(g.value, model[key]);
  }
}

TEST(SstTest, ScanVisitsAllEntriesInOrder) {
  SstFixture fx;
  SstBuilder builder(1000);
  for (int i = 0; i < 1000; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%05d", i);
    builder.add(key, put_entry(std::to_string(i), 2));
  }
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/scan.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/scan.sst");
  ASSERT_TRUE(open.ok());
  int count = 0;
  std::string prev;
  auto r = open.reader->scan(fx.t, [&](std::string_view key,
                                       const MemEntry& e) {
    EXPECT_GE(std::string(key), prev);
    EXPECT_EQ(e.value, std::to_string(count));
    prev = std::string(key);
    ++count;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(count, 1000);
}

// Property test: SstReader::get against a reference map over multi-block
// SSTs. Each user key has one to three versions (newest first, some of
// them tombstones) and values of random length, so block boundaries fall
// at varied places, sometimes between versions of one key. Every stored
// key is looked up — first, last and those at block boundaries included —
// plus keys that fall between, before and after the stored ones.
class SstOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SstOracleTest, GetMatchesNewestVersion) {
  sim::Rng rng(GetParam());
  std::set<std::string> keys;
  while (keys.size() < 1500) {
    std::string k = "key";
    const int len = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < len; ++i) {
      k.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    keys.insert(std::move(k));
  }
  struct Newest {
    bool deleted;
    std::string value;
  };
  std::map<std::string, Newest> model;
  SstBuilder builder(keys.size());
  std::uint64_t seq = 100000;
  for (const auto& k : keys) {
    const int versions = static_cast<int>(rng.uniform_int(1, 3));
    for (int v = 0; v < versions; ++v) {
      MemEntry e;
      e.sequence = seq--;
      if (rng.bernoulli(0.15)) {
        e.type = EntryType::kDelete;
      } else {
        e.value.assign(static_cast<std::size_t>(rng.uniform_int(0, 300)),
                       static_cast<char>('a' + v));
      }
      if (v == 0) {
        model[k] = Newest{e.type == EntryType::kDelete, e.value};
      }
      builder.add(k, e);
    }
  }
  ASSERT_GT(builder.data_bytes(), 20 * kTargetDataBlockBytes);
  SstFixture fx;
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/oracle.sst").ok());
  auto open = SstReader::open(*fx.fs, fx.t, "/oracle.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;

  const auto check = [&](const std::string& key) {
    const SstGetResult g = sst.get(fx.t, key);
    ASSERT_EQ(g.err, Errno::kOk) << key;
    const auto it = model.find(key);
    if (it == model.end()) {
      ASSERT_EQ(g.state, LookupState::kMissing) << key;
    } else if (it->second.deleted) {
      ASSERT_EQ(g.state, LookupState::kDeleted) << key;
    } else {
      ASSERT_EQ(g.state, LookupState::kFound) << key;
      ASSERT_EQ(g.value, it->second.value) << key;
    }
  };
  for (const auto& [k, newest] : model) {
    ASSERT_NO_FATAL_FAILURE(check(k));
    ASSERT_NO_FATAL_FAILURE(check(k + "0"));  // between k and its successor
    ASSERT_NO_FATAL_FAILURE(check(k.substr(0, k.size() - 1)));
  }
  ASSERT_NO_FATAL_FAILURE(check(""));
  ASSERT_NO_FATAL_FAILURE(check("a"));
  ASSERT_NO_FATAL_FAILURE(check("zzz"));
  EXPECT_EQ(sst.smallest(), model.begin()->first);
  EXPECT_EQ(sst.largest(), model.rbegin()->first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SstOracleTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 2024u));

// A data block whose last entry declares a key or value longer than the
// bytes left in the block: the entries before it still read, and the
// corrupt entry reads as absent, without an error.
class SstCorruptLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(SstCorruptLengthTest, OversizedLastEntryReadsAsMissing) {
  SstFixture fx;
  SstBuilder builder(3);
  builder.add("key1", put_entry("value1", 3));
  builder.add("key2", put_entry("value2", 2));
  builder.add("key3", put_entry("value3", 1));
  ASSERT_TRUE(builder.write_to(*fx.fs, fx.t, "/bad.sst").ok());

  // Entry: u16 klen | u32 vlen | u64 seq | u8 type | key | value.
  constexpr std::uint64_t kEntryBytes = 2 + 4 + 8 + 1 + 4 + 6;
  const std::uint64_t last = 2 * kEntryBytes;
  std::vector<std::byte> patch;
  std::uint64_t at = last;
  switch (GetParam()) {
    case 0:  // klen past the block end
      patch = {std::byte{0xff}, std::byte{0xff}};
      break;
    case 1:  // vlen one byte past the block end
      patch = {std::byte{7}, std::byte{0}, std::byte{0}, std::byte{0}};
      at = last + 2;
      break;
    default:  // vlen of almost 4 GiB
      patch = {std::byte{0xf0}, std::byte{0xff}, std::byte{0xff},
               std::byte{0xff}};
      at = last + 2;
      break;
  }
  const FsLookupResult lr = fx.fs->lookup(fx.t, "/bad.sst");
  ASSERT_TRUE(lr.ok());
  const FsIoResult wr = fx.fs->write(lr.done, lr.inode, at, patch);
  ASSERT_TRUE(wr.ok());
  fx.t = wr.done;

  auto open = SstReader::open(*fx.fs, fx.t, "/bad.sst");
  ASSERT_TRUE(open.ok());
  SstReader& sst = *open.reader;
  for (const char* key : {"key1", "key2"}) {
    const SstGetResult g = sst.get(fx.t, key);
    EXPECT_EQ(g.err, Errno::kOk);
    EXPECT_EQ(g.state, LookupState::kFound) << key;
  }
  const SstGetResult g = sst.get(fx.t, "key3");
  EXPECT_EQ(g.err, Errno::kOk);
  EXPECT_EQ(g.state, LookupState::kMissing);
  EXPECT_TRUE(g.value.empty());
}

INSTANTIATE_TEST_SUITE_P(Fields, SstCorruptLengthTest,
                         ::testing::Values(0, 1, 2));

TEST(SstTest, OpenRejectsGarbage) {
  SstFixture fx;
  std::uint32_t ino = 0;
  fx.t = fx.fs->create(fx.t, "/junk.sst", &ino).done;
  std::vector<std::byte> junk(200, std::byte{0x5a});
  fx.t = fx.fs->write(fx.t, ino, 0, junk).done;
  auto open = SstReader::open(*fx.fs, fx.t, "/junk.sst");
  EXPECT_FALSE(open.ok());
  EXPECT_EQ(open.reader, nullptr);
}

TEST(SstTest, OpenMissingFileFails) {
  SstFixture fx;
  auto open = SstReader::open(*fx.fs, fx.t, "/nope.sst");
  EXPECT_EQ(open.err, Errno::kENOENT);
}

}  // namespace
}  // namespace deepnote::storage::kvdb
