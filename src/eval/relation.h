#ifndef DATALOG_EVAL_RELATION_H_
#define DATALOG_EVAL_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "eval/tuple.h"
#include "util/interning.h"

namespace datalog {

/// A set of tuples of fixed arity with insertion-order iteration and lazy
/// hash indexes on column subsets. Rows are append-only, which lets indexes
/// extend incrementally and lets callers treat a row-count watermark as a
/// stable snapshot boundary (used by semi-naive evaluation).
///
/// Storage is columnar and id-only (see docs/columnar_storage.md): every
/// inserted value is interned to a dense u32 id in the global
/// ValueDictionary and each column is a contiguous
/// `std::vector<std::uint32_t>`; dedup, membership and the postings
/// indexes all key on ids, so probes compare 4-byte integers. The columns
/// are the only copy of a row. `row(i)` and `rows()` decode rows on
/// demand through the dictionary and return `Tuple`s by value; the
/// executors read `column(c)` directly and resolve only the ids they
/// bind, never a whole scanned row.
/// An explicit row count stands in for the column length, because
/// zero-arity rows occupy no ids.
///
/// Thread safety: mutation (Insert) requires exclusive access, and Lookup
/// lazily builds indexes, so it is not a pure read in general. Concurrent
/// access from multiple threads is safe only under the frozen-snapshot
/// contract: no Insert is in flight, and every column set that will be
/// probed has been EnsureIndex'd since the last Insert. Under that
/// contract Lookup, Contains, FindRowId, rows(), row(), column() and
/// size() are all read-only (see docs/parallel_eval.md). Decoding a row
/// only reads the columns and calls ValueDictionary::Resolve, which is
/// lock-free, so readers of a frozen relation may run while other
/// threads intern new values into the dictionary (the server's
/// query-during-commit pattern).
class Relation {
 public:
  explicit Relation(int arity = 0)
      : arity_(arity), columns_(static_cast<std::size_t>(arity)) {}

  int arity() const { return arity_; }
  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Inserts `tuple`; returns true if it was not already present.
  bool Insert(Tuple tuple);

  /// Insert by dictionary ids (`ids.size()` must equal arity()); returns
  /// true if the row was new.
  bool InsertIds(const std::vector<std::uint32_t>& ids);

  /// Inserts `count` id rows stored back to back in `ids` (row r is
  /// ids[r * arity(), (r + 1) * arity())), in order; returns how many
  /// were new. The single emit-and-dedup path of every join executor:
  /// exactly one dedup-table probe per row, and a new row is appended to
  /// the columns as it stands -- no Value is touched. `count` is
  /// explicit because zero-arity rows occupy no ids.
  std::size_t InsertIdRows(const std::vector<std::uint32_t>& ids,
                           std::size_t count);

  /// Pre-sizes storage (the columns and the dedup table) for
  /// `additional` more rows, so bulk inserts pay one table resize instead
  /// of a doubling cascade. The fixpoint drivers call it once per round
  /// per head relation, sized by the relation's growth in the previous
  /// round. Purely an optimization; inserting more or fewer rows than
  /// reserved is fine.
  void ReserveRows(std::size_t additional);

  /// Adds every row of `other` (same arity) in its row order; returns how
  /// many were new. The copy stays in id space (Database's UnionWith runs
  /// on this).
  std::size_t UnionWith(const Relation& other);

  /// Erases every tuple of `tuples` that is present; returns how many
  /// were removed. Removal compacts the columns (later rows shift
  /// down) and invalidates every index -- including any outstanding
  /// Prepare{Single,}Index views, which keep pointing at live (now
  /// empty) index maps rather than freed memory -- so erasure breaks the
  /// append-only watermark contract and must never run concurrently with
  /// readers. The incremental materialization engine calls this between
  /// evaluation rounds, when it has exclusive access (see
  /// docs/incremental_eval.md).
  std::size_t EraseAll(const std::vector<Tuple>& tuples);

  /// Returned by the row-id lookups below when the row is absent.
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  /// The row id of `tuple` (its position in rows()), found through the
  /// dedup table, or kNoRow. Rows are distinct, so this is the one row a
  /// fully bound probe can match; the executors test it against the
  /// atom's row range.
  std::uint32_t FindRowId(const Tuple& tuple) const;

  /// FindRowId by dictionary ids; a key whose length is not arity()
  /// matches nothing. Inline: the executors' fully bound probes land here
  /// once per candidate binding.
  std::uint32_t FindRowIdByIds(const std::vector<std::uint32_t>& ids) const {
    if (ids.size() != columns_.size()) return kNoRow;
    return id_table_.Find(columns_, ids.data());
  }

  bool Contains(const Tuple& tuple) const {
    return FindRowId(tuple) != kNoRow;
  }
  bool ContainsIds(const std::vector<std::uint32_t>& ids) const {
    return FindRowIdByIds(ids) != kNoRow;
  }

  /// True if row `i` of `other` is present here, compared by ids (no
  /// decode); false when the arities differ.
  bool ContainsRowOf(const Relation& other, std::size_t i) const;

  /// Row `i` (i < size()), decoded from the id columns through the
  /// dictionary.
  Tuple row(std::size_t i) const {
    const ValueDictionary& dict = ValueDictionary::Global();
    Tuple tuple;
    tuple.reserve(columns_.size());
    for (const std::vector<std::uint32_t>& col : columns_) {
      tuple.push_back(dict.Resolve(col[i]));
    }
    return tuple;
  }

  /// The insertion-ordered rows as a light range whose iterator decodes
  /// each row on dereference (a `Tuple` by value), so
  /// `for (const Tuple& t : rel.rows())` reads one row at a time and
  /// nothing is materialized. The range's end is the row count when
  /// end() is called; rows appended later are not visited by a loop
  /// already running. A caller that needs a `std::vector<Tuple>` builds
  /// it explicitly from begin()/end().
  class Rows {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Tuple;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Tuple;

      iterator() = default;
      Tuple operator*() const { return rel_->row(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      friend class Rows;
      iterator(const Relation* rel, std::size_t i) : rel_(rel), i_(i) {}
      const Relation* rel_ = nullptr;
      std::size_t i_ = 0;
    };

    iterator begin() const { return iterator(rel_, 0); }
    iterator end() const { return iterator(rel_, rel_->size()); }
    std::size_t size() const { return rel_->size(); }
    bool empty() const { return rel_->empty(); }
    Tuple operator[](std::size_t i) const { return rel_->row(i); }

   private:
    friend class Relation;
    explicit Rows(const Relation* rel) : rel_(rel) {}
    const Relation* rel_;
  };
  Rows rows() const { return Rows(this); }

  /// The id column for `c`: column(c)[i] is the dictionary id of
  /// row(i)[c]. Contiguous, insertion-ordered, append-only between
  /// erasures -- the VM's scan substrate.
  const std::vector<std::uint32_t>& column(int c) const {
    return columns_[static_cast<std::size_t>(c)];
  }

  /// Returns the row indices whose projection onto `columns` equals `key`
  /// (`key[i]` corresponds to `columns[i]`), in ascending order.
  /// `columns` must be strictly increasing and non-empty. Builds/extends
  /// the index on first use. Single-column probes are routed to the
  /// single-column fast path below.
  const std::vector<std::uint32_t>& Lookup(const std::vector<int>& columns,
                                           const Tuple& key) const;

  /// Single-column fast path: the index is keyed directly on the value's
  /// dictionary id, so neither the probe nor the per-row index entries
  /// allocate a one-element key. Agrees exactly with
  /// Lookup({column}, {key}).
  const std::vector<std::uint32_t>& Lookup(int column, const Value& key) const;

  /// Builds (or extends to cover all current rows) the index on
  /// `columns`, making subsequent Lookup calls on that column set pure
  /// reads until the next Insert. The parallel evaluator calls this for
  /// every column set its plans will probe before fanning out.
  void EnsureIndex(const std::vector<int>& columns) const;

  /// Hashes an id row / id key the same way TupleHash hashes a Tuple.
  struct IdRowHash {
    std::size_t operator()(const std::vector<std::uint32_t>& ids) const {
      std::size_t seed = ids.size();
      for (std::uint32_t id : ids) {
        HashCombine(seed, std::hash<std::uint32_t>{}(id));
      }
      return seed;
    }
  };

  /// Direct handles onto a built index, skipping the per-probe index-map
  /// find and extend check that Lookup pays. Valid until the next Insert;
  /// EraseAll empties the underlying maps in place, so a stale view
  /// safely finds nothing instead of dangling. The executors prepare one
  /// per join depth per enumeration (the relation is frozen while
  /// matching). Find converts the key through the dictionary; FindId /
  /// FindIds probe by ids directly (the VM's access).
  class SingleIndexView {
   public:
    SingleIndexView() = default;
    bool valid() const { return map_ != nullptr; }
    const std::vector<std::uint32_t>& Find(const Value& key) const;
    const std::vector<std::uint32_t>& FindId(std::uint32_t id) const {
      auto it = map_->find(id);
      return it == map_->end() ? EmptyRowIds() : it->second;
    }

   private:
    friend class Relation;
    using Map = std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>;
    explicit SingleIndexView(const Map* map) : map_(map) {}
    const Map* map_ = nullptr;
  };
  class MultiIndexView {
   public:
    MultiIndexView() = default;
    bool valid() const { return map_ != nullptr; }
    const std::vector<std::uint32_t>& Find(const Tuple& key) const;
    const std::vector<std::uint32_t>& FindIds(
        const std::vector<std::uint32_t>& key) const {
      auto it = map_->find(key);
      return it == map_->end() ? EmptyRowIds() : it->second;
    }

   private:
    friend class Relation;
    using Map = std::unordered_map<std::vector<std::uint32_t>,
                                   std::vector<std::uint32_t>, IdRowHash>;
    explicit MultiIndexView(const Map* map) : map_(map) {}
    const Map* map_ = nullptr;
  };

  /// Build/extend the index on `column` (resp. `columns`, any size >= 0;
  /// the degenerate empty-column index maps the empty key to every row)
  /// and return a view of it. Same laziness and thread-safety contract
  /// as Lookup: write-free when the index already covers all rows.
  SingleIndexView PrepareSingleIndex(int column) const;
  MultiIndexView PrepareIndex(const std::vector<int>& columns) const;

  /// The sorted distinct dictionary ids stored in `column`: the root candidate list the multiway-intersection
  /// plan shape intersects against (see docs/multiway_joins.md). Built
  /// lazily and rebuilt when rows were appended since the last call;
  /// same thread-safety contract as Lookup (write-free when current, so
  /// EnsureSortedKeys before a parallel fan-out makes it a pure read).
  /// EraseAll invalidates the cache in place, like the indexes above.
  const std::vector<std::uint32_t>& SortedColumnKeys(int column) const;
  void EnsureSortedKeys(int column) const { SortedColumnKeys(column); }

  static const std::vector<std::uint32_t>& EmptyRowIds();

  /// The ids of `postings` -- an ascending posting list from Lookup or
  /// an index view -- that lie in the row range [begin, end): a
  /// lower-bound skip to `begin` and a stop before `end`, each skipped
  /// when the list lies inside the bound anyway. This is how a probe of
  /// an old prefix or a semi-naive delta, both row ranges of the full
  /// relation, reads the full relation's index.
  static std::span<const std::uint32_t> RowsInRange(
      const std::vector<std::uint32_t>& postings, std::size_t begin,
      std::size_t end) {
    auto lo = postings.begin();
    if (begin != 0 && !postings.empty() && postings.front() < begin) {
      lo = std::lower_bound(lo, postings.end(), begin);
    }
    auto hi = postings.end();
    if (lo != hi && postings.back() >= end) hi = std::lower_bound(lo, hi, end);
    return {lo, hi};
  }

 private:
  /// Open-addressing dedup/membership table.
  /// A slot is one u32: 0 marks it empty; otherwise the bits under
  /// row_mask_ (log2 of the slot count) hold row_id + 1 and the bits
  /// above hold a tag taken from the high half of the row's hash. Row
  /// ids fit under the mask because the table holds every row and stays
  /// at most half full. The keys are the id rows already sitting in
  /// columns_, so neither insert nor probe ever allocates per row, and a
  /// probe reads a row's columns only on a tag match. A fully bound probe
  /// of a delta range that fails -- most do -- therefore reads a short
  /// run of slots of the full relation's table and nothing else; the
  /// half-full bound keeps that run short.
  class RowIdTable {
   public:
    using Columns = std::vector<std::vector<std::uint32_t>>;

    /// Appends the id row at `ids` (columns.size() ids, about to become
    /// row `row_id` of `columns`; `hash` is HashIds of it) unless an
    /// equal row is already present; returns true if inserted. The caller
    /// appends to `columns` after a true return; probing only ever
    /// dereferences rows below `row_id`.
    bool InsertOrFind(const Columns& columns, const std::uint32_t* ids,
                      std::uint64_t hash, std::uint32_t row_id);
    /// The row id holding the id row at `ids`, or kNoRow.
    std::uint32_t Find(const Columns& columns, const std::uint32_t* ids) const {
      if (size_ == 0) return kNoRow;
      const std::uint64_t hash = HashIds(ids, columns.size());
      const std::uint32_t tag = Tag(hash);
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t h = hash & mask; slots_[h] != 0; h = (h + 1) & mask) {
        const std::uint32_t slot = slots_[h];
        if ((slot & ~row_mask_) != tag) continue;
        const std::uint32_t row = (slot & row_mask_) - 1;
        if (RowEquals(columns, row, ids)) return row;
      }
      return kNoRow;
    }
    /// Drops every entry and re-inserts rows [0, num_rows) of `columns`
    /// (used after EraseAll compacts the columns).
    void Rebuild(const Columns& columns, std::size_t num_rows);

    /// Resizes the slot array once so `additional` more rows fit under
    /// the 1/2 load factor (no-op when they already do).
    void Reserve(const Columns& columns, std::size_t additional);

    /// Starts loading the slot where a row hashing to `hash` is probed
    /// first: a batch insert issues this a few rows ahead, so the cache
    /// misses of a table beyond L2 overlap instead of serializing.
    void Prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
      if (!slots_.empty()) {
        __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
      }
#else
      (void)hash;
#endif
    }

    static std::uint64_t HashIds(const std::uint32_t* ids, std::size_t n) {
      std::size_t seed = n;
      for (std::size_t i = 0; i < n; ++i) {
        HashCombine(seed, std::hash<std::uint32_t>{}(ids[i]));
      }
      // Finalizer (murmur3 fmix64). HashCombine alone leaves dictionary
      // ids -- dense, sequential -- poorly mixed: the home position comes
      // from the low bits and the tag from the high ones, and without
      // this the linear probes cluster into long runs on chain-shaped
      // workloads.
      seed ^= seed >> 33;
      seed *= 0xff51afd7ed558ccdULL;
      seed ^= seed >> 33;
      seed *= 0xc4ceb9fe1a85ec53ULL;
      seed ^= seed >> 33;
      return seed;
    }

   private:
    static bool RowEquals(const Columns& columns, std::uint32_t row,
                          const std::uint32_t* ids) {
      for (std::size_t c = 0; c < columns.size(); ++c) {
        if (columns[c][row] != ids[c]) return false;
      }
      return true;
    }
    /// The tag bits of a slot for a row hashing to `hash`.
    std::uint32_t Tag(std::uint64_t hash) const {
      return static_cast<std::uint32_t>(hash >> 32) & ~row_mask_;
    }
    void ResizeTo(const Columns& columns, std::size_t new_size);

    std::vector<std::uint32_t> slots_;  // power-of-two size; 0 = empty
    std::uint32_t row_mask_ = 0;        // slots_.size() - 1: the row bits
    std::size_t size_ = 0;
  };

  struct ColumnIndex {
    MultiIndexView::Map map;
    std::size_t built_up_to = 0;  // rows [0, built_up_to) are indexed
  };
  struct SingleColumnIndex {
    SingleIndexView::Map map;
    std::size_t built_up_to = 0;  // rows [0, built_up_to) are indexed
  };
  struct SortedKeyCache {
    std::vector<std::uint32_t> keys;  // sorted distinct ids
    std::size_t built_up_to = 0;      // rows [0, built_up_to) contributed
  };

  /// Insert of the id row at `ids` (RowIdTable::HashIds of it
  /// is `hash`) into the dedup table and the columns; returns true if it
  /// was new.
  bool InsertIdRow(const std::uint32_t* ids, std::uint64_t hash);

  void ExtendIndex(const std::vector<int>& columns, ColumnIndex* index) const;
  void ExtendSingleIndex(int column, SingleColumnIndex* index) const;

  int arity_;
  // The row count: each column's length, kept explicitly for arity 0.
  std::size_t num_rows_ = 0;
  // One contiguous id vector per column -- the rows, insertion-ordered --
  // plus the allocation-free open-addressing dedup table over them.
  std::vector<std::vector<std::uint32_t>> columns_;
  RowIdTable id_table_;
  // Ordered maps keyed by column list (or single column); indexes are
  // created lazily by Lookup and extended incrementally as rows are
  // appended. EraseAll empties entries in place (instead of erasing the
  // nodes) so outstanding index views stay safely dereferenceable.
  mutable std::map<std::vector<int>, ColumnIndex> indexes_;
  mutable std::map<int, SingleColumnIndex> single_indexes_;
  // Sorted distinct per-column id lists for the multiway plan shape;
  // same in-place invalidation as the indexes.
  mutable std::map<int, SortedKeyCache> sorted_keys_;
};

}  // namespace datalog

#endif  // DATALOG_EVAL_RELATION_H_
