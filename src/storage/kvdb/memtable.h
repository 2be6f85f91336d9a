// Memtable: in-memory sorted buffer of recent writes.
//
// Entries are keyed by (user_key, inverted sequence) so that a lookup
// finds the *newest* entry for a user key first — the RocksDB internal-key
// trick. The skiplist is the only ordered structure (iteration, cursors,
// flush); point lookups go through a hash index beside it that maps each
// user key to the skiplist node of its newest entry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kvdb/skiplist.h"

namespace deepnote::storage::kvdb {

enum class EntryType : std::uint8_t {
  kPut = 1,
  kDelete = 2,
};

struct MemEntry {
  EntryType type = EntryType::kPut;
  std::uint64_t sequence = 0;
  std::string value;
};

/// Result of a point lookup against one container.
enum class LookupState {
  kFound,    ///< value present
  kDeleted,  ///< tombstone: stop searching older containers
  kMissing,  ///< not in this container: search older ones
};

/// Orders internal keys by (user key ascending, sequence descending) —
/// raw byte comparison of the concatenated encoding would mis-order user
/// keys that are prefixes of one another (the binary ~sequence suffix
/// compares higher than printable key bytes).
struct InternalKeyLess {
  bool operator()(std::string_view a, std::string_view b) const;
};

class MemTable {
 public:
  explicit MemTable(std::uint64_t seed = 0x9e37ull) : list_(seed) {}

  void put(std::string_view key, std::string_view value,
           std::uint64_t sequence);
  void del(std::string_view key, std::uint64_t sequence);

  /// The newest entry for `key`: one hash probe, no skiplist walk.
  LookupState get(std::string_view key, std::string* value_out) const;

  /// Approximate memory footprint (keys + values + node overhead). The
  /// point index is not counted: this value alone decides when to flush.
  std::uint64_t approximate_bytes() const { return bytes_; }
  std::size_t entry_count() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  /// Iterate entries in internal-key order (ascending user key, newest
  /// first within a key).
  void for_each(const std::function<void(std::string_view user_key,
                                         const MemEntry&)>& fn) const;

  /// Iterate from the first entry with user key >= `from`; the visitor
  /// returns false to stop.
  void for_each_from(std::string_view from,
                     const std::function<bool(std::string_view user_key,
                                              const MemEntry&)>& fn) const;

  /// Streaming cursor in internal-key order.
  class Cursor {
   public:
    Cursor() = default;
    bool valid() const { return inner_.valid(); }
    /// The full internal key (user key + inverted sequence).
    std::string_view internal_key() const { return inner_.key(); }
    const MemEntry& entry() const { return inner_.value(); }
    void next() { inner_.next(); }

   private:
    friend class MemTable;
    explicit Cursor(SkipList<MemEntry, InternalKeyLess>::Cursor inner)
        : inner_(inner) {}
    SkipList<MemEntry, InternalKeyLess>::Cursor inner_;
  };
  Cursor cursor_at(std::string_view user_key_from) const;

  /// Internal-key encoding helpers (shared with the SST writer).
  static std::string internal_key(std::string_view user_key,
                                  std::uint64_t sequence);
  static std::string_view user_key_of(std::string_view internal_key);
  static std::uint64_t sequence_of(std::string_view internal_key);

 private:
  /// Encode (user_key, sequence) into the reusable scratch buffer and
  /// return a view of it — the hot-path equivalent of internal_key()
  /// without the per-call string allocation. The view is only valid until
  /// the next build_key call; the skiplist copies it on insert.
  std::string_view build_key(std::string_view user_key,
                             std::uint64_t sequence) const;

  using List = SkipList<MemEntry, InternalKeyLess>;

  /// Inserts into the skiplist and points the index slot of `key` at the
  /// new node unless the slot holds a newer entry.
  void add(std::string_view key, std::uint64_t sequence, MemEntry entry);
  void grow_index();

  List list_;
  // Open-addressing point index: power-of-two capacity, linear probing,
  // load <= 1/2, hashed on user-key bytes only. An invalid cursor is an
  // empty slot; nothing is ever erased (the memtable only grows).
  std::vector<List::Cursor> index_;
  std::size_t index_used_ = 0;
  std::uint64_t bytes_ = 0;
  mutable std::string key_scratch_;  // reused by build_key (const lookups too)
};

}  // namespace deepnote::storage::kvdb
