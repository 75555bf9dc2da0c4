// Storage-conformance suite: every behavioral contract of Relation --
// insertion/dedup results, iteration order, lookup row-id sets,
// old-limit watermark snapshots, erasure semantics, and index-view
// invalidation. Any divergence that slips past this suite would surface
// as a mismatch against the oracle in the differential fuzzer, so keep
// this suite the first, cheapest line of defense.

#include <memory>
#include <span>
#include <vector>

#include "eval/database.h"
#include "eval/relation.h"
#include "gtest/gtest.h"

namespace datalog {
namespace {

Tuple T2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

/// Parameterized for the suite's one instance, Columnar (below): the
/// suite once also ran a row-store backend, and the instance keeps its
/// name so test ids stay stable.
class RelationConformanceTest : public ::testing::TestWithParam<bool> {};

TEST_P(RelationConformanceTest, InsertDeduplicatesAndCounts) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T2(1, 2)));
  EXPECT_FALSE(rel.Insert(T2(1, 2)));
  EXPECT_TRUE(rel.Insert(T2(2, 1)));
  EXPECT_FALSE(rel.Insert(T2(2, 1)));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(T2(1, 2)));
  EXPECT_TRUE(rel.Contains(T2(2, 1)));
  EXPECT_FALSE(rel.Contains(T2(2, 2)));
}

TEST_P(RelationConformanceTest, IterationFollowsInsertionOrder) {
  Relation rel(2);
  rel.Insert(T2(5, 6));
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(1, 2));  // duplicate: must not disturb the order
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.row(0), T2(5, 6));
  EXPECT_EQ(rel.row(1), T2(1, 2));
  EXPECT_EQ(rel.row(2), T2(3, 4));
}

TEST_P(RelationConformanceTest, MixedValueKindsStayDistinct) {
  // Int(7) and Symbol(7) share a payload; the dictionary (and the row
  // set) must keep the kinds apart.
  Relation rel(1);
  EXPECT_TRUE(rel.Insert({Value::Int(7)}));
  EXPECT_TRUE(rel.Insert({Value::Symbol(7)}));
  EXPECT_FALSE(rel.Insert({Value::Int(7)}));
  EXPECT_TRUE(rel.Contains({Value::Int(7)}));
  EXPECT_TRUE(rel.Contains({Value::Symbol(7)}));
  EXPECT_FALSE(rel.Contains({Value::Frozen(7)}));
}

TEST_P(RelationConformanceTest, LookupReturnsRowIdsInInsertionOrder) {
  Relation rel(2);
  rel.Insert(T2(1, 9));
  rel.Insert(T2(2, 9));
  rel.Insert(T2(1, 8));
  rel.Insert(T2(1, 7));
  const std::vector<std::uint32_t>& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 2u);
  EXPECT_EQ(hits[2], 3u);
  EXPECT_TRUE(rel.Lookup(0, Value::Int(99)).empty());
}

TEST_P(RelationConformanceTest, MultiColumnLookupAgreesWithScan) {
  Relation rel(3);
  rel.Insert({Value::Int(1), Value::Int(2), Value::Int(3)});
  rel.Insert({Value::Int(1), Value::Int(2), Value::Int(4)});
  rel.Insert({Value::Int(1), Value::Int(5), Value::Int(3)});
  const auto& hits = rel.Lookup({0, 1}, {Value::Int(1), Value::Int(2)});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
  const auto& one = rel.Lookup({1, 2}, {Value::Int(5), Value::Int(3)});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 2u);
}

TEST_P(RelationConformanceTest, LookupKeyNeverInsertedAnywhere) {
  // A probe key absent from the whole process (not just this relation)
  // exercises the dictionary's unknown-id early out.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_TRUE(rel.Lookup(0, Value::Int(123456789)).empty());
  EXPECT_FALSE(rel.Contains(T2(123456789, 987654321)));
}

TEST_P(RelationConformanceTest, IndexExtendsAcrossLaterInserts) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 1u);
  rel.Insert(T2(1, 3));  // appended after the index was built
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 2u);
}

TEST_P(RelationConformanceTest, OldLimitWatermarkSnapshotsStaleRows) {
  // The semi-naive contract: row ids below a previously taken size()
  // keep identifying the same tuples after later appends.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  const std::size_t watermark = rel.size();
  rel.Insert(T2(5, 6));
  rel.Insert(T2(1, 7));
  for (std::size_t i = 0; i < watermark; ++i) {
    EXPECT_TRUE(rel.Contains(rel.row(i)));
  }
  EXPECT_EQ(rel.row(0), T2(1, 2));
  EXPECT_EQ(rel.row(1), T2(3, 4));
  // Old-snapshot filtering as compiled plans do it: postings for key 1
  // split across the watermark, and the range [0, watermark) keeps the
  // first.
  const auto& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_LT(hits[0], watermark);
  EXPECT_GE(hits[1], watermark);
  EXPECT_EQ(Relation::RowsInRange(hits, 0, watermark).size(), 1u);
  EXPECT_EQ(Relation::RowsInRange(hits, watermark, rel.size()).size(), 1u);
}

TEST_P(RelationConformanceTest, EraseAllRemovesAndCompacts) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(5, 6));
  EXPECT_EQ(rel.EraseAll({T2(3, 4), T2(7, 8)}), 1u);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.row(0), T2(1, 2));
  EXPECT_EQ(rel.row(1), T2(5, 6));
  EXPECT_FALSE(rel.Contains(T2(3, 4)));
  EXPECT_TRUE(rel.Insert(T2(3, 4)));  // re-insertable after erasure
  EXPECT_EQ(rel.size(), 3u);
}

TEST_P(RelationConformanceTest, EraseAllRebuildsIndexesOnNextLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(1, 5));
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 2u);
  EXPECT_EQ(rel.Lookup({0, 1}, T2(3, 4)).size(), 1u);
  EXPECT_EQ(rel.EraseAll({T2(1, 2)}), 1u);
  // Row ids shifted down; the rebuilt index must reflect that.
  const auto& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
  const auto& multi = rel.Lookup({0, 1}, T2(3, 4));
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0], 0u);
}

TEST_P(RelationConformanceTest, EraseAllInvalidatesOutstandingViews) {
  // Regression test: EraseAll used to drop the index map nodes
  // themselves, leaving previously prepared views dangling into freed
  // memory (a use-after-free under ASan). The contract is that a stale
  // view stays dereferenceable and finds nothing.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(1, 3));
  rel.Insert(T2(4, 5));
  Relation::SingleIndexView single = rel.PrepareSingleIndex(0);
  Relation::MultiIndexView multi = rel.PrepareIndex({0, 1});
  ASSERT_EQ(single.Find(Value::Int(1)).size(), 2u);
  ASSERT_EQ(multi.Find(T2(4, 5)).size(), 1u);
  EXPECT_EQ(rel.EraseAll({T2(1, 2)}), 1u);
  EXPECT_TRUE(single.Find(Value::Int(1)).empty());
  EXPECT_TRUE(single.Find(Value::Int(4)).empty());
  EXPECT_TRUE(multi.Find(T2(4, 5)).empty());
  // Fresh views see the compacted rows again.
  EXPECT_EQ(rel.PrepareSingleIndex(0).Find(Value::Int(1)).size(), 1u);
  EXPECT_EQ(rel.PrepareIndex({0, 1}).Find(T2(4, 5)).size(), 1u);
}

TEST_P(RelationConformanceTest, PreparedViewsAgreeWithLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(2, 2));
  rel.Insert(T2(1, 4));
  Relation::SingleIndexView single = rel.PrepareSingleIndex(1);
  EXPECT_EQ(single.Find(Value::Int(2)), rel.Lookup(1, Value::Int(2)));
  Relation::MultiIndexView multi = rel.PrepareIndex({0, 1});
  EXPECT_EQ(multi.Find(T2(1, 4)), rel.Lookup({0, 1}, T2(1, 4)));
  EXPECT_TRUE(multi.Find(T2(9, 9)).empty());
}

TEST_P(RelationConformanceTest, DegenerateEmptyColumnIndexMapsAllRows) {
  // Zero bound columns: the empty key indexes every row.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  Relation::MultiIndexView view = rel.PrepareIndex({});
  const auto& all = view.Find(Tuple{});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], 0u);
  EXPECT_EQ(all[1], 1u);
}


TEST_P(RelationConformanceTest, IdsRoundTripThroughEitherBackend) {
  // InsertIds/ContainsIds and the Value API see one set: feed the id row
  // of a tuple into a relation and observe it through the Value API.
  ValueDictionary& dict = ValueDictionary::Global();
  std::vector<std::uint32_t> ids;
  dict.InternRow(T2(41, 42), &ids);
  Relation rel(2);
  EXPECT_TRUE(rel.InsertIds(ids));
  EXPECT_FALSE(rel.InsertIds(ids));
  EXPECT_TRUE(rel.Contains(T2(41, 42)));
  EXPECT_TRUE(rel.ContainsIds(ids));
  EXPECT_EQ(rel.row(0), T2(41, 42));
  std::vector<std::uint32_t> other;
  dict.InternRow(T2(42, 41), &other);
  EXPECT_FALSE(rel.ContainsIds(other));
}

TEST_P(RelationConformanceTest, ColumnViewMirrorsRows) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  ValueDictionary& dict = ValueDictionary::Global();
  for (std::size_t i = 0; i < rel.size(); ++i) {
    for (int c = 0; c < rel.arity(); ++c) {
      EXPECT_EQ(dict.Resolve(rel.column(c)[i]),
                rel.row(i)[static_cast<std::size_t>(c)]);
    }
  }
}

std::vector<std::uint32_t> InRange(const std::vector<std::uint32_t>& postings,
                                   std::size_t begin, std::size_t end) {
  std::span<const std::uint32_t> rows =
      Relation::RowsInRange(postings, begin, end);
  return {rows.begin(), rows.end()};
}

TEST_P(RelationConformanceTest, RangeRestrictedPostingsLookups) {
  // A delta or old-snapshot probe reads the full relation's postings
  // restricted to a row range, which may start mid-postings and end
  // before the last row.
  Relation rel(2);
  for (std::int64_t i = 0; i < 10; ++i) rel.Insert(T2(i % 2, i));
  const std::vector<std::uint32_t>& even = rel.Lookup(0, Value::Int(0));
  ASSERT_EQ(even, (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(InRange(even, 3, 7), (std::vector<std::uint32_t>{4, 6}));
  EXPECT_EQ(InRange(even, 4, 5), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(InRange(even, 2, 9), (std::vector<std::uint32_t>{2, 4, 6, 8}));
  EXPECT_EQ(InRange(even, 0, 10), even);
  EXPECT_TRUE(InRange(even, 5, 6).empty());    // between two postings
  EXPECT_TRUE(InRange(even, 9, 10).empty());   // past the last posting
  EXPECT_TRUE(InRange(even, 0, 0).empty());    // empty range
  EXPECT_TRUE(InRange(Relation::EmptyRowIds(), 0, 10).empty());
  // Multi-column postings and prepared views obey the same ranges.
  const std::vector<std::uint32_t>& one =
      rel.PrepareIndex({0, 1}).Find(T2(1, 7));
  EXPECT_EQ(InRange(one, 7, 8), (std::vector<std::uint32_t>{7}));
  EXPECT_TRUE(InRange(one, 0, 7).empty());
  EXPECT_TRUE(InRange(one, 8, 10).empty());
  // Rows appended after a range was cut stay outside it.
  rel.Insert(T2(0, 10));
  EXPECT_EQ(InRange(rel.Lookup(0, Value::Int(0)), 3, 10),
            (std::vector<std::uint32_t>{4, 6, 8}));
}

TEST_P(RelationConformanceTest, RowIdLookupThroughDedupTable) {
  // A fully bound probe finds its one candidate row through the dedup
  // table and tests the id against the atom's range.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(5, 6));
  EXPECT_EQ(rel.FindRowId(T2(1, 2)), 0u);
  EXPECT_EQ(rel.FindRowId(T2(5, 6)), 2u);
  EXPECT_EQ(rel.FindRowId(T2(6, 5)), Relation::kNoRow);
  EXPECT_EQ(rel.FindRowId(T2(123456, 654321)), Relation::kNoRow);
  std::vector<std::uint32_t> ids;
  ValueDictionary::Global().InternRow(T2(3, 4), &ids);
  EXPECT_EQ(rel.FindRowIdByIds(ids), 1u);
  // A key of the wrong arity never matches.
  EXPECT_EQ(rel.FindRowIdByIds({ids[0]}), Relation::kNoRow);
  // Many rows: every row is found at its own id, across table growth.
  Relation big(2);
  for (std::int64_t i = 0; i < 500; ++i) big.Insert(T2(i, i * 7 % 13));
  for (std::size_t i = 0; i < big.size(); ++i) {
    EXPECT_EQ(big.FindRowId(big.row(i)), i);
  }
}

TEST_P(RelationConformanceTest, RowIdLookupAfterEraseAll) {
  // EraseAll compacts rows and empties the indexes in place; the dedup
  // table must then map every survivor to its shifted row id, forget
  // the erased rows, and keep outstanding views finding nothing.
  Relation rel(2);
  for (std::int64_t i = 0; i < 6; ++i) rel.Insert(T2(i, i + 1));
  Relation::SingleIndexView view = rel.PrepareSingleIndex(0);
  ASSERT_EQ(view.Find(Value::Int(4)).size(), 1u);
  EXPECT_EQ(rel.EraseAll({T2(0, 1), T2(3, 4)}), 2u);
  EXPECT_TRUE(view.Find(Value::Int(4)).empty());
  EXPECT_EQ(rel.FindRowId(T2(0, 1)), Relation::kNoRow);
  EXPECT_EQ(rel.FindRowId(T2(3, 4)), Relation::kNoRow);
  for (std::size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(rel.FindRowId(rel.row(i)), i);
  }
  EXPECT_EQ(rel.FindRowId(T2(4, 5)), 2u);
  // A re-inserted row takes the next id and is found there.
  EXPECT_TRUE(rel.Insert(T2(3, 4)));
  EXPECT_EQ(rel.FindRowId(T2(3, 4)), 4u);
  EXPECT_EQ(InRange(rel.Lookup(0, Value::Int(3)), 4, 5),
            (std::vector<std::uint32_t>{4}));
}

TEST_P(RelationConformanceTest, InsertIdRowsDedupsWithinAndAcrossBatches) {
  ValueDictionary& dict = ValueDictionary::Global();
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  dict.InternRow(T2(71, 72), &a);
  dict.InternRow(T2(72, 71), &b);
  Relation rel(2);
  // Duplicates inside one batch and against earlier rows are dropped;
  // the first occurrence keeps its place.
  std::vector<std::uint32_t> batch = {a[0], a[1], b[0], b[1], a[0], a[1]};
  EXPECT_EQ(rel.InsertIdRows(batch, 3), 2u);
  EXPECT_EQ(rel.InsertIdRows(batch, 3), 0u);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.row(0), T2(71, 72));
  EXPECT_EQ(rel.row(1), T2(72, 71));
  // Zero-arity rows occupy no ids; the count says how many there are.
  Relation unit(0);
  EXPECT_EQ(unit.InsertIdRows({}, 3), 1u);
  EXPECT_EQ(unit.size(), 1u);
}

/// The rows of `rel` read both ways -- `row(i)` by index, and `rows()`
/// by iteration -- checking that the two agree; returns them.
std::vector<Tuple> DecodedRows(const Relation& rel) {
  std::vector<Tuple> by_index;
  for (std::size_t i = 0; i < rel.size(); ++i) by_index.push_back(rel.row(i));
  const Relation::Rows rows = rel.rows();
  EXPECT_EQ(rows.size(), rel.size());
  EXPECT_EQ(rows.empty(), rel.empty());
  std::vector<Tuple> by_iteration;
  for (const Tuple& t : rows) by_iteration.push_back(t);
  EXPECT_EQ(by_iteration, by_index);
  EXPECT_EQ(std::vector<Tuple>(rows.begin(), rows.end()), by_index);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], by_index[i]);
  }
  return by_index;
}

/// Rows of every value kind the decode must reproduce exactly: ints,
/// symbols and nulls, with payloads shared across kinds.
std::vector<Tuple> MixedKindRows() {
  return {{Value::Int(3), Value::Symbol(3)},
          {Value::Null(3), Value::Int(-8)},
          {Value::Symbol(0), Value::Null(0)},
          {Value::Int(3), Value::Int(3)},
          {Value::Null(9), Value::Symbol(3)}};
}

TEST_P(RelationConformanceTest, ZeroArityRelation) {
  // Zero-arity rows occupy no ids: only the row count says they exist.
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  EXPECT_EQ(DecodedRows(rel), std::vector<Tuple>{Tuple{}});
  const Relation copy = rel;
  Relation merged(0);
  EXPECT_EQ(merged.UnionWith(rel), 1u);
  EXPECT_EQ(merged.UnionWith(rel), 0u);
  EXPECT_EQ(DecodedRows(merged), std::vector<Tuple>{Tuple{}});
  EXPECT_EQ(rel.EraseAll({Tuple{}}), 1u);
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains(Tuple{}));
  EXPECT_TRUE(DecodedRows(rel).empty());
  EXPECT_FALSE(rel.ContainsRowOf(copy, 0));
  EXPECT_TRUE(merged.ContainsRowOf(copy, 0));
  EXPECT_EQ(copy.size(), 1u);  // the copy was independent
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
}

TEST_P(RelationConformanceTest, DecodedRowsFollowInsertionOrder) {
  const std::vector<Tuple> inserted = MixedKindRows();
  Relation rel(2);
  for (const Tuple& t : inserted) EXPECT_TRUE(rel.Insert(t));
  for (const Tuple& t : inserted) EXPECT_FALSE(rel.Insert(t));
  EXPECT_EQ(DecodedRows(rel), inserted);
  // Rows inserted by id decode to the same Values.
  std::vector<std::uint32_t> ids;
  for (const Tuple& t : inserted) {
    std::vector<std::uint32_t> row;
    ValueDictionary::Global().InternRow(t, &row);
    ids.insert(ids.end(), row.begin(), row.end());
  }
  Relation by_id(2);
  EXPECT_EQ(by_id.InsertIdRows(ids, inserted.size()), inserted.size());
  EXPECT_EQ(DecodedRows(by_id), inserted);
}

TEST_P(RelationConformanceTest, DecodedRowsAfterEraseUnionAndCopy) {
  const std::vector<Tuple> inserted = MixedKindRows();
  Relation rel(2);
  for (const Tuple& t : inserted) rel.Insert(t);

  // EraseAll compacts: survivors keep their relative order.
  Relation erased = rel;
  EXPECT_EQ(erased.EraseAll({inserted[1], inserted[3], inserted[1]}), 2u);
  EXPECT_EQ(DecodedRows(erased),
            (std::vector<Tuple>{inserted[0], inserted[2], inserted[4]}));
  EXPECT_EQ(DecodedRows(rel), inserted);  // the copy was independent

  // UnionWith appends other's new rows in other's order.
  Relation merged(2);
  merged.Insert(inserted[4]);
  EXPECT_EQ(merged.UnionWith(rel), inserted.size() - 1);
  EXPECT_EQ(DecodedRows(merged),
            (std::vector<Tuple>{inserted[4], inserted[0], inserted[1],
                                inserted[2], inserted[3]}));
  for (std::size_t i = 0; i < rel.size(); ++i) {
    EXPECT_TRUE(merged.ContainsRowOf(rel, i));
  }
  EXPECT_FALSE(erased.ContainsRowOf(rel, 1));
  EXPECT_FALSE(Relation(1).ContainsRowOf(rel, 0));  // arity mismatch

  // A copied Database decodes the same rows, zero-arity ones included,
  // and compares equal in id space.
  auto symbols = std::make_shared<SymbolTable>();
  const PredicateId p = symbols->InternPredicate("p", 2).value();
  const PredicateId flag = symbols->InternPredicate("flag", 0).value();
  Database db(symbols);
  for (const Tuple& t : inserted) db.AddFact(p, t);
  db.AddFact(flag, Tuple{});
  const Database copy = db;
  EXPECT_EQ(DecodedRows(copy.relation(p)), inserted);
  EXPECT_EQ(copy.relation(flag).size(), 1u);
  EXPECT_EQ(DecodedRows(copy.relation(flag)), std::vector<Tuple>{Tuple{}});
  EXPECT_TRUE(copy == db);
  Database smaller = copy;
  smaller.EraseFacts(flag, {Tuple{}});
  EXPECT_TRUE(smaller.IsSubsetOf(db));
  EXPECT_FALSE(db.IsSubsetOf(smaller));
  EXPECT_EQ(db.relation(flag).size(), 1u);  // the copy was independent
}

INSTANTIATE_TEST_SUITE_P(RowAndColumnar, RelationConformanceTest,
                         ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return "Columnar";
                         });

}  // namespace
}  // namespace datalog
