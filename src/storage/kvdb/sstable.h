// Sorted string table (SST) files on extfs.
//
// File layout:
//   [data block]*            entries in internal-key order
//   [filter block]           serialized bloom filter over user keys
//   [index block]            per data block: offset/size/last user key
//   [props]                  smallest & largest user key, max sequence
//   [footer, 64 bytes]       offsets/sizes + magic
//
// Data block entry: u16 klen | u32 vlen | u64 seq | u8 type | key | value.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/extfs.h"
#include "storage/kvdb/bloom.h"
#include "storage/kvdb/memtable.h"

namespace deepnote::storage::kvdb {

inline constexpr std::uint32_t kSstMagic = 0x53535431;  // "SST1"
inline constexpr std::uint32_t kTargetDataBlockBytes = 4096;

struct SstFooter {
  std::uint64_t index_offset = 0;
  std::uint32_t index_size = 0;
  std::uint64_t filter_offset = 0;
  std::uint32_t filter_size = 0;
  std::uint64_t props_offset = 0;
  std::uint32_t props_size = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t max_sequence = 0;
  std::uint32_t magic = kSstMagic;
};

/// Builds an SST in memory; entries must arrive in internal-key order
/// (ascending user key, newest first within a user key).
class SstBuilder {
 public:
  explicit SstBuilder(std::size_t expected_keys);

  void add(std::string_view user_key, const MemEntry& entry);

  /// Finalize and write to a fresh file at `path`. Durable (fsynced) on
  /// success. Returns the fs error and completion time.
  FsResult write_to(ExtFs& fs, sim::SimTime now, std::string_view path);

  std::uint64_t entry_count() const { return entry_count_; }
  std::uint64_t data_bytes() const { return data_.size(); }

 private:
  void finish_block();

  std::vector<std::byte> data_;         // concatenated data blocks
  std::vector<std::byte> current_;      // block under construction
  struct IndexEntry {
    std::uint64_t offset;
    std::uint32_t size;
    std::string last_key;
  };
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  std::string smallest_;
  std::string largest_;
  std::string block_last_key_;
  std::uint64_t entry_count_ = 0;
  std::uint64_t max_sequence_ = 0;
  std::string last_user_key_seen_;  // dedup keys for the bloom filter
};

struct SstGetResult {
  Errno err = Errno::kOk;
  sim::SimTime done = sim::SimTime::zero();
  LookupState state = LookupState::kMissing;
  std::string value;
};

/// Reader: index + bloom are loaded once at open (table cache); point
/// lookups read one data block from the filesystem.
class SstReader {
 public:
  struct OpenResult {
    Errno err = Errno::kOk;
    sim::SimTime done = sim::SimTime::zero();
    std::unique_ptr<SstReader> reader;
    bool ok() const { return err == Errno::kOk; }
  };
  static OpenResult open(ExtFs& fs, sim::SimTime now, std::string_view path);

  SstGetResult get(sim::SimTime now, std::string_view user_key);

  /// Stream every entry in order (used by compaction). Reads the whole
  /// data area; returns err/time.
  FsResult scan(sim::SimTime now,
                const std::function<void(std::string_view user_key,
                                         const MemEntry&)>& fn);

  /// Stream entries with user key >= start, using the block index to
  /// skip ahead; the visitor returns false to stop (e.g. past the range
  /// end). Only touched blocks are read.
  FsResult scan_from(sim::SimTime now, std::string_view start,
                     const std::function<bool(std::string_view user_key,
                                              const MemEntry&)>& fn);

  /// Streaming cursor over the file's entries in internal-key order.
  /// Blocks are read lazily through the filesystem; the shared clock `t`
  /// advances with each block read.
  class Cursor {
   public:
    Cursor() = default;
    bool valid() const { return pos_ < entries_.size(); }
    const std::string& key() const { return entries_[pos_].first; }
    const MemEntry& entry() const { return entries_[pos_].second; }
    /// Advance; loads the next block when the current one is exhausted.
    /// Returns kEIO on a device error (cursor becomes invalid).
    Errno next(sim::SimTime& t);

   private:
    friend class SstReader;
    SstReader* sst_ = nullptr;
    std::size_t block_idx_ = 0;  ///< next index entry to load
    std::vector<std::pair<std::string, MemEntry>> entries_;
    std::size_t pos_ = 0;

    Errno load_next_block(sim::SimTime& t);
  };
  /// Cursor positioned at the first entry with user key >= `start`.
  Cursor seek(sim::SimTime& t, std::string_view start, Errno* err);

  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  std::uint64_t max_sequence() const { return max_sequence_; }
  std::uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }

 private:
  SstReader(ExtFs& fs, std::string path, std::uint32_t inode);

  ExtFs& fs_;
  std::string path_;
  std::uint32_t inode_;
  struct IndexEntry {
    std::uint64_t offset;
    std::uint32_t size;
    std::string last_key;
  };
  std::vector<IndexEntry> index_;
  std::optional<BloomFilter> bloom_;
  std::string smallest_;
  std::string largest_;
  std::uint64_t entry_count_ = 0;
  std::uint64_t max_sequence_ = 0;
  std::vector<std::byte> block_;  // get()'s data block, reused across calls
};

}  // namespace deepnote::storage::kvdb
