#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/hybrid.h"
#include "engine/query.h"
#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::engine {
namespace {

/// Reference: std::map keeps groups in GroupKey::operator< order, which
/// is the order GroupTable::KeyOrder must reproduce.
using RefMap = std::map<GroupKey, std::vector<double>>;

GroupKey Key(std::initializer_list<int64_t> values) {
  GroupKey key;
  for (int64_t v : values) key.values[key.size++] = v;
  return key;
}

/// Folds `value` into a 2-state group (sum, count) in both the table and
/// the reference map.
template <typename Table>
void AddBoth(Table* table, RefMap* ref, const GroupKey& key, double value) {
  double* states = table->FindOrInsert(key);
  states[0] += value;
  states[1] += 1;
  std::vector<double>& expect =
      ref->try_emplace(key, std::vector<double>(2, 0.0)).first->second;
  expect[0] += value;
  expect[1] += 1;
}

/// The table holds exactly the reference's groups, with equal states,
/// and KeyOrder walks them in the map's order.
template <typename Table>
void ExpectMatchesMap(const Table& table, const RefMap& ref) {
  ASSERT_EQ(table.size(), ref.size());
  const std::vector<uint32_t> order = table.KeyOrder();
  ASSERT_EQ(order.size(), ref.size());
  size_t i = 0;
  for (const auto& [key, expect] : ref) {
    const uint32_t g = order[i++];
    ASSERT_TRUE(table.key(g) == key) << "group " << i - 1;
    EXPECT_EQ(table.states(g)[0], expect[0]);
    EXPECT_EQ(table.states(g)[1], expect[1]);
  }
}

TEST(GroupTableTest, GrowsPastInitialCapacity) {
  GroupTable<double> table(2);
  RefMap ref;
  // 12000 distinct keys, each hit three times in interleaved passes so
  // lookups of existing groups cross every growth step.
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t k = 0; k < 12000; ++k) {
      AddBoth(&table, &ref, Key({k * 7919 - 40000}), pass + k * 0.5);
    }
  }
  EXPECT_EQ(table.size(), 12000u);
  ExpectMatchesMap(table, ref);
}

TEST(GroupTableTest, OneToFourKeyColumnsWithCharAndNegativeKeys) {
  const char* chars[] = {"A", "AB", "ABC", "B", "ZZZZZZZZ", ""};
  for (uint32_t width = 1; width <= 4; ++width) {
    GroupTable<double> table(2);
    RefMap ref;
    Random rng(100 + width);
    for (int row = 0; row < 5000; ++row) {
      GroupKey key;
      key.size = width;
      for (uint32_t i = 0; i < width; ++i) {
        key.values[i] = (i % 2 == 0)
                            ? rng.UniformRange(-6, 6)
                            : PackCharKey(chars[rng.Uniform(6)]);
      }
      AddBoth(&table, &ref, key, static_cast<double>(row));
    }
    SCOPED_TRACE("key columns " + std::to_string(width));
    ExpectMatchesMap(table, ref);
  }
}

TEST(GroupTableTest, KeysDifferingOnlyInSizeAreDistinctGroups) {
  GroupTable<double> table(2);
  RefMap ref;
  // Unused value slots are zero, so these agree on every stored value.
  const GroupKey keys[] = {Key({}), Key({0}), Key({0, 0}), Key({0, 0, 0}),
                           Key({0, 0, 0, 0}), Key({5}), Key({5, 0})};
  for (int pass = 0; pass < 2; ++pass) {
    for (const GroupKey& key : keys) AddBoth(&table, &ref, key, 1.0);
  }
  EXPECT_EQ(table.size(), 7u);
  ExpectMatchesMap(table, ref);
}

/// Sends every key to one of two home slots, so probes run long chains.
struct CollidingHash {
  uint64_t operator()(const GroupKey& key) const {
    return static_cast<uint64_t>(key.values[0]) & 1;
  }
};

TEST(GroupTableTest, ForcedCollisions) {
  GroupTable<double, CollidingHash> table(2);
  RefMap ref;
  Random rng(9);
  for (int row = 0; row < 4000; ++row) {
    const int64_t k = rng.UniformRange(-500, 500);
    AddBoth(&table, &ref, Key({k, -k}), 2.0 * row);
  }
  ExpectMatchesMap(table, ref);
}

TEST(GroupTableTest, InsertedFlagAndValueInitializedStates) {
  GroupTable<AggState> table(3);
  bool inserted = false;
  AggState* first = table.FindOrInsert(Key({42}), &inserted);
  EXPECT_TRUE(inserted);
  for (int a = 0; a < 3; ++a) EXPECT_EQ(first[a].count, 0u);
  first[1].Update(3.5);
  const AggState* again = table.FindOrInsert(Key({42}), &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(again[1].sum, 3.5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(GroupTableTest, EmissionOrderMatchesMapOnSeededRandomKeys) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    GroupTable<double> table(2);
    RefMap ref;
    Random rng(seed);
    for (int row = 0; row < 3000; ++row) {
      const uint32_t width = 1 + static_cast<uint32_t>(rng.Uniform(4));
      GroupKey key;
      key.size = width;
      for (uint32_t i = 0; i < width; ++i) {
        // Full-range values and a small domain, so both fresh and
        // repeated keys occur.
        key.values[i] = rng.Uniform(2) == 0
                            ? static_cast<int64_t>(rng.NextU64())
                            : rng.UniformRange(-3, 3);
      }
      AddBoth(&table, &ref, key, 1.0);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesMap(table, ref);
  }
}

// ------------------------------------------- engines on one grouped query

TEST(GroupTableTest, RowColRmAndHybridEmitIdenticalGroups) {
  using layout::ColumnType;
  sim::MemorySystem memory;
  auto schema = layout::Schema::Create({
      {"neg", ColumnType::kInt32, 0},
      {"tag", ColumnType::kChar, 3},
      {"big", ColumnType::kInt64, 0},
      {"val", ColumnType::kInt32, 0},
      {"sel", ColumnType::kInt32, 0},
  });
  ASSERT_TRUE(schema.ok());
  constexpr uint64_t kRows = 4000;
  layout::RowTable table(std::move(*schema), &memory, kRows);
  layout::RowBuilder b(&table.schema());
  const char* tags[] = {"X", "XY", "XYZ", "Q"};
  Random rng(77);
  // Reference groups straight from the generated values (no engine code):
  // (neg, tag, big) -> {SUM(val), COUNT(*)} over rows with sel < 60.
  RefMap ref;
  for (uint64_t r = 0; r < kRows; ++r) {
    const int32_t neg = static_cast<int32_t>(rng.UniformRange(-9, 9));
    const char* tag = tags[rng.Uniform(4)];
    const int64_t big = static_cast<int64_t>(rng.Uniform(3)) << 40;
    const int32_t val = static_cast<int32_t>(rng.Uniform(1000));
    const int32_t sel = static_cast<int32_t>(rng.Uniform(100));
    b.Reset();
    b.AddInt32(neg).AddChar(tag).AddInt64(big).AddInt32(val).AddInt32(sel);
    table.AppendRow(b.Finish());
    if (sel < 60) {
      std::vector<double>& g =
          ref.try_emplace(Key({neg, PackCharKey(tag), big}),
                          std::vector<double>(2, 0.0))
              .first->second;
      g[0] += val;
      g[1] += 1;
    }
  }
  layout::ColumnTable columns(table, &memory);
  relmem::RmEngine rm(&memory);

  QuerySpec q;
  q.aggregates.push_back({AggFunc::kSum, q.exprs.Column(3)});
  q.aggregates.push_back({AggFunc::kCount, -1});
  q.group_by = {0, 1, 2};
  q.predicates.push_back(Predicate::Int(4, relmem::CompareOp::kLt, 60));

  std::vector<std::pair<std::string, QueryResult>> results;
  const auto run = [&](const std::string& name, auto&& engine) {
    memory.ResetState();
    auto r = engine.Execute(q);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    results.emplace_back(name, *r);
  };
  run("ROW", VolcanoEngine(&table));
  run("COL", VectorEngine(&columns));
  run("COL column-at-a-time",
      VectorEngine(&columns, CostModel::A53Defaults(),
                   VectorMode::kColumnAtATime));
  run("RM", RmExecEngine(&table, &rm));
  run("HYBRID", HybridEngine(&table, &rm));
  ASSERT_EQ(results.size(), 5u);

  for (const auto& [name, result] : results) {
    SCOPED_TRACE(name);
    ASSERT_EQ(result.groups.size(), ref.size());
    size_t i = 0;
    for (const auto& [key, expect] : ref) {
      const auto& [got_key, got] = result.groups[i++];
      ASSERT_TRUE(got_key == key) << "group " << i - 1;
      EXPECT_EQ(got[0], expect[0]);
      EXPECT_EQ(got[1], expect[1]);
    }
  }
}

}  // namespace
}  // namespace relfab::engine
