#include "storage/kvdb/memtable.h"

#include <cstring>

namespace deepnote::storage::kvdb {
namespace {

/// Hash of a user key's bytes, a word at a time. Only the probe order of
/// the point index depends on it, never any output.
std::uint64_t key_hash(std::string_view key) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = key.size() * kMul;
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, key.data() + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 32;
  }
  if (i < key.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, key.data() + i, key.size() - i);
    h = (h ^ w) * kMul;
  }
  // murmur3 finalizer.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

bool InternalKeyLess::operator()(std::string_view a,
                                 std::string_view b) const {
  const std::string_view ua = MemTable::user_key_of(a);
  const std::string_view ub = MemTable::user_key_of(b);
  if (ua != ub) return ua < ub;
  // Equal user keys: the big-endian ~sequence suffixes compare bytewise
  // in the same order as descending sequence.
  return std::memcmp(a.data() + ua.size(), b.data() + ub.size(), 8) < 0;
}

std::string MemTable::internal_key(std::string_view user_key,
                                   std::uint64_t sequence) {
  // user_key + big-endian(~sequence): ascending key order, newest (highest
  // sequence) first among equal user keys.
  std::string k;
  k.reserve(user_key.size() + 8);
  k.assign(user_key);
  const std::uint64_t inv = ~sequence;
  for (int shift = 56; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((inv >> shift) & 0xff));
  }
  return k;
}

std::string_view MemTable::build_key(std::string_view user_key,
                                     std::uint64_t sequence) const {
  // Same encoding as internal_key(), into a buffer whose capacity sticks
  // across calls.
  key_scratch_.assign(user_key);
  const std::uint64_t inv = ~sequence;
  for (int shift = 56; shift >= 0; shift -= 8) {
    key_scratch_.push_back(static_cast<char>((inv >> shift) & 0xff));
  }
  return key_scratch_;
}

std::string_view MemTable::user_key_of(std::string_view internal_key) {
  return internal_key.substr(0, internal_key.size() - 8);
}

std::uint64_t MemTable::sequence_of(std::string_view internal_key) {
  std::uint64_t inv = 0;
  const auto* p = internal_key.data() + internal_key.size() - 8;
  for (int i = 0; i < 8; ++i) {
    inv = (inv << 8) | static_cast<unsigned char>(p[i]);
  }
  return ~inv;
}

void MemTable::put(std::string_view key, std::string_view value,
                   std::uint64_t sequence) {
  MemEntry e;
  e.type = EntryType::kPut;
  e.sequence = sequence;
  e.value.assign(value);
  bytes_ += key.size() + value.size() + 48;  // node overhead estimate
  add(key, sequence, std::move(e));
}

void MemTable::del(std::string_view key, std::uint64_t sequence) {
  MemEntry e;
  e.type = EntryType::kDelete;
  e.sequence = sequence;
  bytes_ += key.size() + 48;
  add(key, sequence, std::move(e));
}

void MemTable::add(std::string_view key, std::uint64_t sequence,
                   MemEntry entry) {
  // Start loading the key's index slot; the skiplist walk hides the miss.
  const std::uint64_t hash = key_hash(key);
  if (!index_.empty()) {
    __builtin_prefetch(&index_[hash & (index_.size() - 1)]);
  }
  const List::Cursor node =
      list_.insert(build_key(key, sequence), std::move(entry));

  if ((index_used_ + 1) * 2 > index_.size()) grow_index();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    List::Cursor& slot = index_[i];
    if (!slot.valid()) {
      slot = node;
      ++index_used_;
      return;
    }
    if (user_key_of(slot.key()) == key) {
      // The skiplist puts a new node before equal internal keys, so on a
      // sequence tie the later insert is the one an ordered seek finds.
      // (Sequences come from the key bytes just compared, not the entry.)
      if (sequence >= sequence_of(slot.key())) slot = node;
      return;
    }
  }
}

void MemTable::grow_index() {
  std::vector<List::Cursor> grown(index_.empty() ? 64 : index_.size() * 2);
  const std::size_t mask = grown.size() - 1;
  for (const List::Cursor& node : index_) {
    if (!node.valid()) continue;
    std::size_t i = key_hash(user_key_of(node.key())) & mask;
    while (grown[i].valid()) i = (i + 1) & mask;
    grown[i] = node;
  }
  index_ = std::move(grown);
}

LookupState MemTable::get(std::string_view key, std::string* value_out) const {
  if (index_.empty()) return LookupState::kMissing;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = key_hash(key) & mask;; i = (i + 1) & mask) {
    const List::Cursor& slot = index_[i];
    if (!slot.valid()) return LookupState::kMissing;
    if (user_key_of(slot.key()) != key) continue;
    const MemEntry& e = slot.value();
    if (e.type == EntryType::kDelete) return LookupState::kDeleted;
    if (value_out) *value_out = e.value;
    return LookupState::kFound;
  }
}

void MemTable::for_each(
    const std::function<void(std::string_view, const MemEntry&)>& fn) const {
  list_.for_each([&](std::string_view ikey, const MemEntry& e) {
    fn(user_key_of(ikey), e);
  });
}

void MemTable::for_each_from(
    std::string_view from,
    const std::function<bool(std::string_view, const MemEntry&)>& fn) const {
  // Seek to (from, max sequence): the first internal key of `from`.
  const std::string_view seek = build_key(from, ~std::uint64_t{0});
  list_.for_each_from(seek, [&](std::string_view ikey, const MemEntry& e) {
    return fn(user_key_of(ikey), e);
  });
}


MemTable::Cursor MemTable::cursor_at(std::string_view user_key_from) const {
  return Cursor{
      list_.cursor_at(build_key(user_key_from, ~std::uint64_t{0}))};
}

}  // namespace deepnote::storage::kvdb
