#include "eval/relation.h"

#include <algorithm>
#include <array>
#include <unordered_set>

namespace datalog {

namespace {
/// Reusable id scratch buffers for Value->id key conversion on the probe
/// paths. Thread-local so concurrent frozen-snapshot
/// readers never share them.
std::vector<std::uint32_t>& IdScratch() {
  thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}
}  // namespace

bool Relation::RowIdTable::InsertOrFind(const Columns& columns,
                                        const std::uint32_t* ids,
                                        std::uint64_t hash,
                                        std::uint32_t row_id) {
  if ((size_ + 1) * 2 > slots_.size()) {
    ResizeTo(columns, slots_.empty() ? 16 : slots_.size() * 2);
  }
  const std::uint32_t tag = Tag(hash);
  const std::size_t mask = slots_.size() - 1;
  std::size_t h = hash & mask;
  while (slots_[h] != 0) {
    const std::uint32_t slot = slots_[h];
    if ((slot & ~row_mask_) == tag &&
        RowEquals(columns, (slot & row_mask_) - 1, ids)) {
      return false;
    }
    h = (h + 1) & mask;
  }
  slots_[h] = tag | (row_id + 1);
  ++size_;
  return true;
}

void Relation::RowIdTable::Reserve(const Columns& columns,
                                   std::size_t additional) {
  const std::size_t needed = (size_ + additional) * 2 + 1;
  std::size_t new_size = slots_.empty() ? 16 : slots_.size();
  while (new_size < needed) new_size *= 2;
  if (new_size > slots_.size()) ResizeTo(columns, new_size);
}

void Relation::RowIdTable::ResizeTo(const Columns& columns,
                                    std::size_t new_size) {
  std::vector<std::uint32_t> old = std::move(slots_);
  const std::uint32_t old_row_mask = row_mask_;
  slots_.assign(new_size, 0);
  row_mask_ = static_cast<std::uint32_t>(new_size - 1);
  const std::size_t mask = new_size - 1;
  // A wider row field leaves fewer tag bits, so every row is re-hashed.
  // Deliberately a local buffer, not IdScratch(): the caller's key may
  // alias the scratch vector while we are mid-insert.
  std::vector<std::uint32_t> ids(columns.size());
  for (std::uint32_t slot : old) {
    if (slot == 0) continue;
    const std::uint32_t row = (slot & old_row_mask) - 1;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      ids[c] = columns[c][row];
    }
    const std::uint64_t hash = HashIds(ids.data(), ids.size());
    std::size_t h = hash & mask;
    while (slots_[h] != 0) h = (h + 1) & mask;
    slots_[h] = Tag(hash) | (row + 1);
  }
}

void Relation::RowIdTable::Rebuild(const Columns& columns,
                                   std::size_t num_rows) {
  slots_.clear();
  row_mask_ = 0;
  size_ = 0;
  if (num_rows == 0) return;
  std::vector<std::uint32_t> ids(columns.size());
  for (std::size_t i = 0; i < num_rows; ++i) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      ids[c] = columns[c][i];
    }
    InsertOrFind(columns, ids.data(), HashIds(ids.data(), ids.size()),
                 static_cast<std::uint32_t>(i));
  }
}

bool Relation::InsertIdRow(const std::uint32_t* ids, std::uint64_t hash) {
  if (!id_table_.InsertOrFind(columns_, ids, hash,
                              static_cast<std::uint32_t>(num_rows_))) {
    return false;
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(ids[c]);
  }
  ++num_rows_;
  return true;
}

bool Relation::Insert(Tuple tuple) {
  std::vector<std::uint32_t>& ids = IdScratch();
  ValueDictionary::Global().InternRow(tuple, &ids);
  return InsertIdRow(ids.data(), RowIdTable::HashIds(ids.data(), ids.size()));
}

bool Relation::InsertIds(const std::vector<std::uint32_t>& ids) {
  return InsertIdRows(ids, 1) == 1;
}

std::size_t Relation::InsertIdRows(const std::vector<std::uint32_t>& ids,
                                   std::size_t count) {
  const std::size_t arity = static_cast<std::size_t>(arity_);
  std::size_t added = 0;
  // Software-pipelined: row r + kAhead is hashed and its slot prefetched
  // while row r is probed.
  constexpr std::size_t kAhead = 8;
  std::array<std::uint64_t, kAhead> hashes;
  auto hash_ahead = [&](std::size_t r) {
    const std::uint64_t hash =
        RowIdTable::HashIds(ids.data() + r * arity, arity);
    id_table_.Prefetch(hash);
    hashes[r % kAhead] = hash;
  };
  for (std::size_t r = 0; r < std::min(count, kAhead); ++r) hash_ahead(r);
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint64_t hash = hashes[r % kAhead];
    if (r + kAhead < count) hash_ahead(r + kAhead);
    if (InsertIdRow(ids.data() + r * arity, hash)) ++added;
  }
  return added;
}

void Relation::ReserveRows(std::size_t additional) {
  // Grow at least geometrically: reserve(size + additional) verbatim on
  // every bulk copy into the same relation would pin capacity to the
  // exact request each time and degrade repeated appends to O(n^2)
  // element moves.
  const std::size_t want = num_rows_ + additional;
  for (auto& col : columns_) {
    if (want > col.capacity()) col.reserve(std::max(want, col.capacity() * 2));
  }
  id_table_.Reserve(columns_, additional);
}

std::size_t Relation::UnionWith(const Relation& other) {
  std::size_t added = 0;
  ReserveRows(other.size());
  std::vector<std::uint32_t>& ids = IdScratch();
  ids.resize(columns_.size());
  for (std::size_t i = 0; i < other.size(); ++i) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      ids[c] = other.columns_[c][i];
    }
    if (InsertIdRow(ids.data(), RowIdTable::HashIds(ids.data(), ids.size()))) {
      ++added;
    }
  }
  return added;
}

bool Relation::ContainsRowOf(const Relation& other, std::size_t i) const {
  if (other.columns_.size() != columns_.size() || num_rows_ == 0) {
    return false;
  }
  std::vector<std::uint32_t>& ids = IdScratch();
  ids.resize(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    ids[c] = other.columns_[c][i];
  }
  return id_table_.Find(columns_, ids.data()) != kNoRow;
}

std::uint32_t Relation::FindRowId(const Tuple& tuple) const {
  if (num_rows_ == 0) return kNoRow;
  std::vector<std::uint32_t>& ids = IdScratch();
  // A tuple containing a value the dictionary has never seen cannot be
  // stored in any relation.
  if (!ValueDictionary::Global().LookupRow(tuple, &ids)) return kNoRow;
  return id_table_.Find(columns_, ids.data());
}

std::size_t Relation::EraseAll(const std::vector<Tuple>& tuples) {
  std::size_t erased = 0;
  // Collect the distinct stored rows to remove (erasure is cold: the
  // incremental engine runs it between rounds with exclusive access, so
  // a temporary node-based set here is fine).
  std::unordered_set<std::vector<std::uint32_t>, IdRowHash> doomed;
  std::vector<std::uint32_t>& ids = IdScratch();
  ValueDictionary& dict = ValueDictionary::Global();
  for (const Tuple& tuple : tuples) {
    if (!dict.LookupRow(tuple, &ids)) continue;  // never stored
    if (id_table_.Find(columns_, ids.data()) != kNoRow) {
      if (doomed.insert(ids).second) ++erased;
    }
  }
  if (erased == 0) return 0;
  ids.resize(columns_.size());
  std::vector<std::vector<std::uint32_t>> new_columns(columns_.size());
  for (auto& col : new_columns) col.reserve(num_rows_ - erased);
  for (std::size_t i = 0; i < num_rows_; ++i) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      ids[c] = columns_[c][i];
    }
    if (doomed.contains(ids)) continue;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      new_columns[c].push_back(ids[c]);
    }
  }
  columns_ = std::move(new_columns);
  num_rows_ -= erased;
  id_table_.Rebuild(columns_, num_rows_);
  // Invalidate every index: row ids shifted, so the incremental
  // built_up_to watermarks are meaningless now. The entries are emptied
  // in place -- NOT erased -- so any outstanding Prepare{Single,}Index
  // view still points at a live map and finds nothing, instead of
  // dangling into freed nodes (the use-after-free the conformance
  // suite's regression test pins down).
  for (auto& [cols, index] : indexes_) {
    index.map.clear();
    index.built_up_to = 0;
  }
  for (auto& [col, index] : single_indexes_) {
    index.map.clear();
    index.built_up_to = 0;
  }
  for (auto& [col, cache] : sorted_keys_) {
    cache.keys.clear();
    cache.built_up_to = 0;
  }
  return erased;
}

const std::vector<std::uint32_t>& Relation::SortedColumnKeys(
    int column) const {
  SortedKeyCache& cache = sorted_keys_[column];
  if (cache.built_up_to != num_rows_) {
    // Appended (or erased-and-compacted) rows since the last build: a
    // merge of the new ids is no cheaper than re-sorting the column, so
    // rebuild from scratch. The fixpoint engines call this once per
    // round per root probe, on relations that grow by whole deltas.
    const std::vector<std::uint32_t>& col =
        columns_[static_cast<std::size_t>(column)];
    cache.keys.assign(col.begin(), col.end());
    std::sort(cache.keys.begin(), cache.keys.end());
    cache.keys.erase(std::unique(cache.keys.begin(), cache.keys.end()),
                     cache.keys.end());
    cache.built_up_to = num_rows_;
  }
  return cache.keys;
}

const std::vector<std::uint32_t>& Relation::EmptyRowIds() {
  static const std::vector<std::uint32_t>* const kEmpty =
      new std::vector<std::uint32_t>();
  return *kEmpty;
}

const std::vector<std::uint32_t>& Relation::SingleIndexView::Find(
    const Value& key) const {
  const std::uint32_t id = ValueDictionary::Global().LookupId(key);
  if (id == ValueDictionary::kInvalidId) return EmptyRowIds();
  return FindId(id);
}

const std::vector<std::uint32_t>& Relation::MultiIndexView::Find(
    const Tuple& key) const {
  std::vector<std::uint32_t>& ids = IdScratch();
  if (!ValueDictionary::Global().LookupRow(key, &ids)) return EmptyRowIds();
  return FindIds(ids);
}

const std::vector<std::uint32_t>& Relation::Lookup(
    const std::vector<int>& columns, const Tuple& key) const {
  if (columns.size() == 1) return Lookup(columns[0], key[0]);
  return PrepareIndex(columns).Find(key);
}

const std::vector<std::uint32_t>& Relation::Lookup(int column,
                                                   const Value& key) const {
  return PrepareSingleIndex(column).Find(key);
}

Relation::SingleIndexView Relation::PrepareSingleIndex(int column) const {
  SingleColumnIndex& index = single_indexes_[column];
  ExtendSingleIndex(column, &index);
  return SingleIndexView(&index.map);
}

Relation::MultiIndexView Relation::PrepareIndex(
    const std::vector<int>& columns) const {
  ColumnIndex& index = indexes_[columns];
  ExtendIndex(columns, &index);
  return MultiIndexView(&index.map);
}

void Relation::EnsureIndex(const std::vector<int>& columns) const {
  if (columns.size() == 1) {
    PrepareSingleIndex(columns[0]);
    return;
  }
  PrepareIndex(columns);
}

void Relation::ExtendIndex(const std::vector<int>& columns,
                           ColumnIndex* index) const {
  // Write-free when already current, so concurrent Lookups on an
  // EnsureIndex'd column set never race on built_up_to.
  if (index->built_up_to == num_rows_) return;
  std::vector<std::uint32_t> key(columns.size());
  for (std::size_t i = index->built_up_to; i < num_rows_; ++i) {
    for (std::size_t k = 0; k < columns.size(); ++k) {
      key[k] = columns_[static_cast<std::size_t>(columns[k])][i];
    }
    index->map[key].push_back(static_cast<std::uint32_t>(i));
  }
  index->built_up_to = num_rows_;
}

void Relation::ExtendSingleIndex(int column, SingleColumnIndex* index) const {
  // Write-free when already current (frozen-snapshot contract), like
  // ExtendIndex above.
  if (index->built_up_to == num_rows_) return;
  const std::vector<std::uint32_t>& col =
      columns_[static_cast<std::size_t>(column)];
  for (std::size_t i = index->built_up_to; i < num_rows_; ++i) {
    index->map[col[i]].push_back(static_cast<std::uint32_t>(i));
  }
  index->built_up_to = num_rows_;
}

}  // namespace datalog
