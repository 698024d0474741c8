#include <gtest/gtest.h>

#include <tuple>

#include "common/random.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::engine {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::RowTable;
using layout::Schema;

/// Shared fixture: one random 12-column table with a columnar copy and
/// an RM engine, reused across all equality tests.
class EngineEnv {
 public:
  static constexpr uint64_t kRows = 3000;
  static constexpr uint32_t kCols = 12;

  EngineEnv() : table_(BuildTable()), columns_(table_, &memory_),
                rm_(&memory_) {}

  static EngineEnv& Get() {
    static EngineEnv* env = new EngineEnv();
    return *env;
  }

  QueryResult Row(const QuerySpec& q) {
    memory_.ResetState();
    VolcanoEngine eng(&table_);
    auto r = eng.Execute(q);
    RELFAB_CHECK(r.ok()) << r.status().ToString();
    return *r;
  }
  QueryResult Col(const QuerySpec& q,
                  VectorMode mode = VectorMode::kFusedLockstep) {
    memory_.ResetState();
    VectorEngine eng(&columns_, CostModel::A53Defaults(), mode);
    auto r = eng.Execute(q);
    RELFAB_CHECK(r.ok()) << r.status().ToString();
    return *r;
  }
  QueryResult Rm(const QuerySpec& q, bool pushdown = false) {
    memory_.ResetState();
    RmExecEngine eng(&table_, &rm_, CostModel::A53Defaults(), pushdown);
    auto r = eng.Execute(q);
    RELFAB_CHECK(r.ok()) << r.status().ToString();
    return *r;
  }

  const RowTable& table() const { return table_; }

 private:
  RowTable BuildTable() {
    // Columns 0..9 int32 in [0,100); column 10 int64; column 11 char(4)
    // cycling A/B/C (group key).
    auto schema = Schema::Create({
        {"c0", ColumnType::kInt32, 0},
        {"c1", ColumnType::kInt32, 0},
        {"c2", ColumnType::kInt32, 0},
        {"c3", ColumnType::kInt32, 0},
        {"c4", ColumnType::kInt32, 0},
        {"c5", ColumnType::kInt32, 0},
        {"c6", ColumnType::kInt32, 0},
        {"c7", ColumnType::kInt32, 0},
        {"c8", ColumnType::kInt32, 0},
        {"c9", ColumnType::kInt32, 0},
        {"big", ColumnType::kInt64, 0},
        {"grp", ColumnType::kChar, 4},
    });
    RowTable table(std::move(*schema), &memory_, kRows);
    RowBuilder b(&table.schema());
    Random rng(2024);
    const char* groups[] = {"AAA", "BBB", "CCC"};
    for (uint64_t r = 0; r < kRows; ++r) {
      b.Reset();
      for (int c = 0; c < 10; ++c) {
        b.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
      }
      b.AddInt64(static_cast<int64_t>(rng.Uniform(1000000)));
      b.AddChar(groups[rng.Uniform(3)]);
      table.AppendRow(b.Finish());
    }
    return table;
  }

  sim::MemorySystem memory_;
  RowTable table_;
  layout::ColumnTable columns_;
  relmem::RmEngine rm_;
};

QuerySpec SumQuery(uint32_t col) {
  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(col)});
  return q;
}

// ------------------------------------------- three-engine equivalence

/// The central functional property of the reproduction: all three
/// access paths compute identical answers for the same query; only the
/// simulated time differs. Swept over projectivity x selectivity.
class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineEquivalenceTest, AllEnginesAgree) {
  const auto [p, s] = GetParam();
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  for (int c = 0; c < p; ++c) q.projection.push_back(c);
  for (int c = 0; c < s; ++c) {
    q.predicates.push_back(
        Predicate::Int(9 - c, relmem::CompareOp::kLt, 50 + 10 * c));
  }
  const QueryResult row = env.Row(q);
  const QueryResult col = env.Col(q);
  const QueryResult rm = env.Rm(q);
  EXPECT_TRUE(row.SameAnswer(col)) << row.ToString() << "\n"
                                   << col.ToString();
  EXPECT_TRUE(row.SameAnswer(rm)) << row.ToString() << "\n"
                                  << rm.ToString();
  EXPECT_GT(row.rows_matched, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7, 10),
                       ::testing::Values(0, 1, 3, 5)));

class AggregateEquivalenceTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(AggregateEquivalenceTest, AllEnginesAgree) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  const int32_t expr =
      GetParam() == AggFunc::kCount ? -1 : q.exprs.Column(3);
  q.aggregates.push_back({GetParam(), expr});
  q.predicates.push_back(Predicate::Int(0, relmem::CompareOp::kGe, 20));
  const QueryResult row = env.Row(q);
  EXPECT_TRUE(row.SameAnswer(env.Col(q)));
  EXPECT_TRUE(row.SameAnswer(env.Rm(q)));
  ASSERT_EQ(row.aggregates.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Funcs, AggregateEquivalenceTest,
                         ::testing::Values(AggFunc::kCount, AggFunc::kSum,
                                           AggFunc::kMin, AggFunc::kMax,
                                           AggFunc::kAvg));

TEST(EngineEquivalence, GroupByCharKey) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(1)});
  q.aggregates.push_back({AggFunc::kCount, -1});
  q.group_by = {11};  // char group column
  const QueryResult row = env.Row(q);
  EXPECT_EQ(row.groups.size(), 3u);  // AAA/BBB/CCC
  EXPECT_TRUE(row.SameAnswer(env.Col(q)));
  EXPECT_TRUE(row.SameAnswer(env.Rm(q)));
}

TEST(EngineEquivalence, GroupByTwoKeys) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  QuerySpec base;
  q.aggregates.push_back({AggFunc::kAvg, q.exprs.Column(5)});
  q.group_by = {11, 0};
  q.predicates.push_back(Predicate::Int(0, relmem::CompareOp::kLt, 5));
  const QueryResult row = env.Row(q);
  EXPECT_GT(row.groups.size(), 3u);
  EXPECT_TRUE(row.SameAnswer(env.Col(q)));
  EXPECT_TRUE(row.SameAnswer(env.Rm(q)));
}

TEST(EngineEquivalence, ExpressionAggregates) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  // sum(c1 * (c2 - c3) + 7)
  const int32_t e = q.exprs.Add(
      q.exprs.Mul(q.exprs.Column(1),
                  q.exprs.Sub(q.exprs.Column(2), q.exprs.Column(3))),
      q.exprs.Constant(7));
  q.aggregates.push_back({AggFunc::kSum, e});
  const QueryResult row = env.Row(q);
  EXPECT_TRUE(row.SameAnswer(env.Col(q)));
  EXPECT_TRUE(row.SameAnswer(env.Rm(q)));
}

TEST(EngineEquivalence, ColumnAtATimeModeAgrees) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(4)});
  q.predicates.push_back(Predicate::Int(1, relmem::CompareOp::kLt, 70));
  q.predicates.push_back(Predicate::Int(2, relmem::CompareOp::kGe, 10));
  const QueryResult fused = env.Col(q, VectorMode::kFusedLockstep);
  const QueryResult caat = env.Col(q, VectorMode::kColumnAtATime);
  EXPECT_TRUE(fused.SameAnswer(caat));
}

TEST(EngineEquivalence, SelectionPushdownAgreesWithSoftware) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(6)});
  q.predicates.push_back(Predicate::Int(7, relmem::CompareOp::kGt, 33));
  q.predicates.push_back(Predicate::Int(8, relmem::CompareOp::kLe, 80));
  const QueryResult sw = env.Rm(q, /*pushdown=*/false);
  const QueryResult hw = env.Rm(q, /*pushdown=*/true);
  EXPECT_TRUE(sw.SameAnswer(hw)) << sw.ToString() << "\n" << hw.ToString();
}

TEST(EngineEquivalence, PushdownShipsLessData) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(6)});
  q.predicates.push_back(Predicate::Int(7, relmem::CompareOp::kLt, 10));
  const QueryResult sw = env.Rm(q, false);
  const QueryResult hw = env.Rm(q, true);
  // ~10% selectivity: the fabric ships far fewer packed rows.
  EXPECT_LT(hw.sim_cycles, sw.sim_cycles);
}

// ---------------------------------------------------------- validation

TEST(QuerySpecValidation, RejectsBadQueries) {
  EngineEnv& env = EngineEnv::Get();
  const Schema& schema = env.table().schema();
  QuerySpec empty;
  EXPECT_TRUE(empty.Validate(schema).IsInvalidArgument());

  QuerySpec mixed;
  mixed.projection = {0};
  mixed.aggregates.push_back({AggFunc::kCount, -1});
  EXPECT_TRUE(mixed.Validate(schema).IsInvalidArgument());

  QuerySpec char_pred;
  char_pred.projection = {0};
  char_pred.predicates.push_back(
      Predicate::Int(11, relmem::CompareOp::kEq, 0));
  EXPECT_TRUE(char_pred.Validate(schema).IsInvalidArgument());

  QuerySpec grouped_no_agg;
  grouped_no_agg.projection = {0};
  grouped_no_agg.group_by = {11};
  EXPECT_TRUE(grouped_no_agg.Validate(schema).IsInvalidArgument());

  QuerySpec bad_expr;
  bad_expr.aggregates.push_back({AggFunc::kSum, 99});
  EXPECT_TRUE(bad_expr.Validate(schema).IsInvalidArgument());
}

TEST(QuerySpecValidation, ReferencedColumnsAreSortedByOffsetAndUnique) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec q;
  const int32_t e = q.exprs.Mul(q.exprs.Column(5), q.exprs.Column(2));
  q.aggregates.push_back({AggFunc::kSum, e});
  q.predicates.push_back(Predicate::Int(5, relmem::CompareOp::kGt, 0));
  q.group_by = {8};
  EXPECT_EQ(q.ReferencedColumns(env.table().schema()),
            (std::vector<uint32_t>{2, 5, 8}));
}

TEST(ExprPoolTest, EvalAndOpCount) {
  ExprPool pool;
  const int32_t e = pool.Add(
      pool.Mul(pool.Column(0), pool.Constant(3)),
      pool.Sub(pool.Column(1), pool.Constant(1)));
  const auto col_fn = [](uint32_t c) { return c == 0 ? 2.0 : 10.0; };
  EXPECT_DOUBLE_EQ(pool.Eval(e, col_fn), 2 * 3 + (10 - 1));
  EXPECT_EQ(pool.OpCount(e), 3u);
  std::vector<uint32_t> cols;
  pool.CollectColumns(e, &cols);
  EXPECT_EQ(cols, (std::vector<uint32_t>{0, 1}));
}

TEST(QueryResultTest, SameAnswerToleratesSummationOrder) {
  QueryResult a, b;
  a.aggregates = {1.0e15};
  b.aggregates = {1.0e15 * (1 + 1e-12)};
  EXPECT_TRUE(a.SameAnswer(b));
  b.aggregates = {1.1e15};
  EXPECT_FALSE(a.SameAnswer(b));
}

TEST(QueryResultTest, SameAnswerChecksCardinalities) {
  QueryResult a, b;
  a.rows_scanned = b.rows_scanned = 10;
  a.rows_matched = 5;
  b.rows_matched = 6;
  EXPECT_FALSE(a.SameAnswer(b));
}

// ------------------------------------------------- scan chunk sizing

/// ScanOperator charges a chunk's rows with one Read and then relies on
/// every chunk line still being the MRU of its L1 set. A chunk can begin
/// on the previous chunk's last line, so from any start offset its span
/// must stay within l1_sets distinct lines: one more, and its first and
/// last lines alias in L1.
TEST(ScanChunkRowsTest, ChunkSpansAtMostL1SetsLinesFromAnyOffset) {
  constexpr uint64_t kLine = 64;
  for (const uint64_t sets : {2ull, 64ull, 128ull, 256ull}) {
    for (uint64_t width = 1; width <= 4096; ++width) {
      const uint64_t rows = ScanChunkRows(width, sets, kLine);
      ASSERT_GE(rows, 1u);
      if (width > (sets - 1) * kLine) continue;  // one row overflows anyway
      for (uint64_t offset = 0; offset < kLine; ++offset) {
        const uint64_t lines = (offset + rows * width - 1) / kLine + 1;
        ASSERT_LE(lines, sets) << "width " << width << " offset " << offset
                               << " rows " << rows << " sets " << sets;
      }
    }
  }
  // Still as large as the bound allows: 20 B rows, 128 sets, 127 lines.
  EXPECT_EQ(ScanChunkRows(20, 128, kLine), 127u * 64 / 20);
  EXPECT_EQ(ScanChunkRows(0, 128, kLine), 1u);
}

// ------------------------------------------------------- cost ordering

TEST(CostOrdering, NarrowProjectionMovesLessDataThanRowScan) {
  EngineEnv& env = EngineEnv::Get();
  const QueryResult row = env.Row(SumQuery(0));
  const QueryResult rm = env.Rm(SumQuery(0));
  EXPECT_LT(rm.sim_cycles, row.sim_cycles);
}

TEST(CostOrdering, VolcanoShortCircuitSkipsLaterPredicates) {
  EngineEnv& env = EngineEnv::Get();
  QuerySpec cheap;  // first conjunct rejects almost everything
  cheap.aggregates.push_back({AggFunc::kCount, -1});
  cheap.predicates.push_back(Predicate::Int(0, relmem::CompareOp::kLt, 1));
  cheap.predicates.push_back(Predicate::Int(1, relmem::CompareOp::kLt, 99));
  QuerySpec expensive;  // same conjuncts, selective one last
  expensive.aggregates.push_back({AggFunc::kCount, -1});
  expensive.predicates.push_back(
      Predicate::Int(1, relmem::CompareOp::kLt, 99));
  expensive.predicates.push_back(
      Predicate::Int(0, relmem::CompareOp::kLt, 1));
  const QueryResult a = env.Row(cheap);
  const QueryResult b = env.Row(expensive);
  EXPECT_TRUE(a.SameAnswer(b));
  EXPECT_LT(a.sim_cycles, b.sim_cycles);
}

}  // namespace
}  // namespace relfab::engine
