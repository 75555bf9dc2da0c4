#include "eval/relation.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace datalog {
namespace {

Tuple T2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T2(1, 2)));
  EXPECT_FALSE(rel.Insert(T2(1, 2)));
  EXPECT_TRUE(rel.Insert(T2(2, 1)));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_TRUE(rel.Contains(T2(1, 2)));
  EXPECT_FALSE(rel.Contains(T2(2, 1)));
}

TEST(RelationTest, RowsPreserveInsertionOrder) {
  Relation rel(2);
  rel.Insert(T2(3, 4));
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.row(0), T2(3, 4));
  EXPECT_EQ(rel.row(1), T2(1, 2));
}

TEST(RelationTest, SingleColumnLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(1, 3));
  rel.Insert(T2(2, 3));
  const auto& hits = rel.Lookup({0}, {Value::Int(1)});
  EXPECT_EQ(hits.size(), 2u);
  const auto& none = rel.Lookup({0}, {Value::Int(9)});
  EXPECT_TRUE(none.empty());
}

TEST(RelationTest, SecondColumnLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 3));
  rel.Insert(T2(2, 3));
  rel.Insert(T2(3, 1));
  EXPECT_EQ(rel.Lookup({1}, {Value::Int(3)}).size(), 2u);
}

TEST(RelationTest, MultiColumnLookup) {
  Relation rel(3);
  rel.Insert({Value::Int(1), Value::Int(2), Value::Int(3)});
  rel.Insert({Value::Int(1), Value::Int(5), Value::Int(3)});
  const auto& hits = rel.Lookup({0, 2}, {Value::Int(1), Value::Int(3)});
  EXPECT_EQ(hits.size(), 2u);
  const auto& hit = rel.Lookup({0, 1}, {Value::Int(1), Value::Int(5)});
  EXPECT_EQ(hit.size(), 1u);
  EXPECT_EQ(rel.row(hit[0])[2], Value::Int(3));
}

TEST(RelationTest, IndexExtendsAfterInsert) {
  // The index is built lazily, then must pick up later insertions.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 1u);
  rel.Insert(T2(1, 9));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 2u);
}

TEST(RelationTest, ZeroArity) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({}));
}

TEST(RelationTest, MixedValueKinds) {
  Relation rel(1);
  rel.Insert({Value::Int(1)});
  rel.Insert({Value::Frozen(1)});
  rel.Insert({Value::Null(1)});
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.Lookup({0}, {Value::Frozen(1)}).size(), 1u);
}

TEST(RelationTest, LookupOnEmptyRelation) {
  Relation rel(2);
  EXPECT_TRUE(rel.Lookup({0}, {Value::Int(1)}).empty());
  EXPECT_TRUE(rel.Lookup({0, 1}, T2(1, 2)).empty());
  // The index created by the miss must still extend once rows arrive.
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 1u);
}

TEST(RelationTest, MissingKeyReturnsStableEmptyResult) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  const auto& miss1 = rel.Lookup({0}, {Value::Int(7)});
  const auto& miss2 = rel.Lookup({1}, {Value::Int(7)});
  EXPECT_TRUE(miss1.empty());
  // Misses on different indexes share one empty sentinel; neither lookup
  // may have materialized an entry for the absent key.
  EXPECT_EQ(&miss1, &miss2);
}

TEST(RelationTest, IndexExtensionAfterInterleavedInserts) {
  // Interleave inserts with lookups on two different indexes; each index
  // extends independently from its own watermark and must never miss or
  // duplicate rows.
  Relation rel(2);
  rel.Insert(T2(1, 10));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 1u);
  rel.Insert(T2(1, 20));
  rel.Insert(T2(2, 10));
  EXPECT_EQ(rel.Lookup({1}, {Value::Int(10)}).size(), 2u);
  rel.Insert(T2(1, 30));
  rel.Insert(T2(1, 10));  // duplicate: must not extend anything
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 3u);
  EXPECT_EQ(rel.Lookup({1}, {Value::Int(10)}).size(), 2u);
  rel.Insert(T2(3, 10));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(1)}).size(), 3u);
  EXPECT_EQ(rel.Lookup({1}, {Value::Int(10)}).size(), 3u);
  EXPECT_EQ(rel.Lookup({0, 1}, T2(1, 20)).size(), 1u);
}

TEST(RelationTest, EnsureIndexMatchesLazyLookup) {
  Relation rel(2);
  for (std::int64_t i = 0; i < 32; ++i) rel.Insert(T2(i % 4, i));
  rel.EnsureIndex({0});
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(2)}).size(), 8u);
  // EnsureIndex after more inserts re-extends to cover the new rows.
  rel.Insert(T2(2, 99));
  rel.EnsureIndex({0});
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(2)}).size(), 9u);
}

TEST(RelationTest, EraseAllRemovesOnlyPresentTuples) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(2, 3));
  rel.Insert(T2(3, 4));
  // One present, one absent, one present-but-listed-twice.
  EXPECT_EQ(rel.EraseAll({T2(1, 2), T2(9, 9), T2(3, 4), T2(3, 4)}), 2u);
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_FALSE(rel.Contains(T2(1, 2)));
  EXPECT_TRUE(rel.Contains(T2(2, 3)));
  EXPECT_FALSE(rel.Contains(T2(3, 4)));
  // Erasing nothing is a no-op that reports zero.
  EXPECT_EQ(rel.EraseAll({T2(7, 7)}), 0u);
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, EraseAllPreservesSurvivorOrder) {
  Relation rel(2);
  rel.Insert(T2(5, 0));
  rel.Insert(T2(1, 0));
  rel.Insert(T2(3, 0));
  rel.Insert(T2(2, 0));
  rel.EraseAll({T2(1, 0)});
  EXPECT_EQ(rel.row(0), T2(5, 0));
  EXPECT_EQ(rel.row(1), T2(3, 0));
  EXPECT_EQ(rel.row(2), T2(2, 0));
}

TEST(RelationTest, EraseAllInvalidatesLazyIndexes) {
  // Build an index, erase rows (shifting row ids), and check that lookups
  // on both the prebuilt and a fresh column set see exactly the
  // survivors -- a stale index would return shifted or dangling row ids.
  Relation rel(2);
  for (std::int64_t i = 0; i < 8; ++i) rel.Insert(T2(i % 2, i));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(0)}).size(), 4u);
  rel.EnsureIndex({1});

  EXPECT_EQ(rel.EraseAll({T2(0, 0), T2(0, 2), T2(1, 7)}), 3u);
  const auto& zeros = rel.Lookup({0}, {Value::Int(0)});
  EXPECT_EQ(zeros.size(), 2u);
  for (std::uint32_t row_id : zeros) {
    EXPECT_EQ(rel.row(row_id)[0], Value::Int(0));
  }
  EXPECT_TRUE(rel.Lookup({1}, {Value::Int(7)}).empty());
  EXPECT_EQ(rel.Lookup({1}, {Value::Int(3)}).size(), 1u);
  EXPECT_EQ(rel.Lookup({0, 1}, T2(1, 5)).size(), 1u);

  // Indexes keep extending after the rebuild.
  rel.Insert(T2(0, 100));
  EXPECT_EQ(rel.Lookup({0}, {Value::Int(0)}).size(), 3u);
}

TEST(RelationTest, SingleAndMultiColumnLookupsAgree) {
  // The Value-keyed single-column fast path must return exactly the row
  // ids of the generic tuple-keyed index on the same column, across
  // every column, key, and growth step (including misses).
  Relation rel(2);
  for (std::int64_t i = 0; i < 40; ++i) rel.Insert(T2(i % 5, i % 7));
  for (int round = 0; round < 2; ++round) {
    for (int col = 0; col < 2; ++col) {
      for (std::int64_t v = -1; v < 9; ++v) {
        const Value key = Value::Int(v);
        // The single-column overload against a straight scan.
        const std::vector<std::uint32_t>& fast = rel.Lookup(col, key);
        std::vector<std::uint32_t> slow;
        for (std::uint32_t id = 0; id < rel.size(); ++id) {
          if (rel.row(id)[static_cast<std::size_t>(col)] == key) {
            slow.push_back(id);
          }
        }
        EXPECT_EQ(fast, slow) << "col " << col << " key " << v;
        // The vector-of-columns spelling delegates to the same index.
        EXPECT_EQ(rel.Lookup(std::vector<int>{col}, Tuple{key}), slow);
      }
    }
    // Grow the relation between rounds: the single-column index must
    // extend incrementally like the generic one.
    for (std::int64_t i = 100; i < 120; ++i) rel.Insert(T2(i % 5, i));
  }
}

TEST(RelationTest, SingleColumnIndexSurvivesEraseAll) {
  Relation rel(2);
  for (std::int64_t i = 0; i < 10; ++i) rel.Insert(T2(i % 2, i));
  EXPECT_EQ(rel.Lookup(0, Value::Int(0)).size(), 5u);
  rel.EraseAll({T2(0, 0), T2(0, 2)});
  // Row ids shifted; the rebuilt index must reflect the survivors.
  EXPECT_EQ(rel.Lookup(0, Value::Int(0)).size(), 3u);
  for (std::uint32_t id : rel.Lookup(0, Value::Int(0))) {
    EXPECT_EQ(rel.row(id)[0], Value::Int(0));
  }
}

TEST(RelationTest, ConcurrentReadOnlyLookupsOnPrebuiltIndex) {
  // The parallel evaluator's frozen-snapshot contract: after EnsureIndex,
  // any number of threads may Lookup/Contains concurrently. Run enough
  // lookups that TSan would flag an index rebuild racing a reader.
  Relation rel(2);
  for (std::int64_t i = 0; i < 256; ++i) rel.Insert(T2(i % 16, i));
  rel.EnsureIndex({0});
  rel.EnsureIndex({1});
  rel.EnsureIndex({0, 1});

  std::atomic<std::size_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rel, &total, t] {
      std::size_t hits = 0;
      for (std::int64_t i = 0; i < 200; ++i) {
        hits += rel.Lookup({0}, {Value::Int((i + t) % 16)}).size();
        hits += rel.Lookup({1}, {Value::Int(i)}).size();
        hits += rel.Lookup({0, 1}, T2(i % 16, i)).size();
        hits += rel.Contains(T2(i % 16, i)) ? 1 : 0;
      }
      total.fetch_add(hits, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  // Per thread: 200 * 16 first-column hits, 200 second-column hits (one
  // row per distinct i), and the (i%16, i) pairs exist for all i < 256.
  EXPECT_EQ(total.load(), 4u * (200u * 16u + 200u + 200u + 200u));
}

TEST(RelationTest, ConcurrentRowDecodeWhileDictionaryGrows) {
  // The server's query-during-commit pattern: readers decode rows of a
  // frozen, index-prepared relation through the global dictionary while
  // another thread interns new values into it -- enough to publish a new
  // dictionary chunk. Decoding only reads the columns and resolves ids
  // lock-free, so TSan must see no race and every decode must be exact.
  Relation rel(2);
  std::vector<Tuple> expected;
  for (std::int64_t i = 0; i < 128; ++i) {
    expected.push_back({Value::Int(i % 8), Value::Symbol(900000 + i)});
    rel.Insert(expected.back());
  }
  // Readers probe through a prepared view by id: Lookup by Value would
  // take the dictionary's shared lock and starve the interning thread.
  const Relation::SingleIndexView by_first = rel.PrepareSingleIndex(0);
  ValueDictionary& dict = ValueDictionary::Global();
  const std::uint32_t three = dict.LookupId(Value::Int(3));

  std::atomic<bool> interning{true};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> passes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      // At least one full pass, then keep reading until interning ends.
      do {
        std::size_t bad = 0;
        std::size_t i = 0;
        for (const Tuple& row : rel.rows()) bad += row != expected[i++];
        for (std::uint32_t id : by_first.FindId(three)) {
          bad += rel.row(id) != expected[id];
        }
        mismatches.fetch_add(bad, std::memory_order_relaxed);
        passes.fetch_add(1, std::memory_order_relaxed);
      } while (interning.load(std::memory_order_acquire));
    });
  }
  // One dictionary chunk holds 2^16 values; this crosses at least one
  // chunk boundary whatever the dictionary held before.
  for (std::int64_t i = 0; i < 70000; ++i) {
    dict.Intern(Value::Int(-5000000 - i));
  }
  interning.store(false, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(passes.load(), 3u);
}

}  // namespace
}  // namespace datalog
