#ifndef RELFAB_ENGINE_SINK_H_
#define RELFAB_ENGINE_SINK_H_

#include <cstdint>
#include <vector>

#include "engine/cost_model.h"
#include "engine/query.h"
#include "layout/schema.h"
#include "sim/memory_system.h"

namespace relfab::engine {

/// The sink every engine's scan loop feeds with its matched rows: the
/// projection checksum, or one query's ungrouped aggregate states or
/// group table, plus the per-row CPU charges of projecting, grouping and
/// aggregating. Each aggregate's expression op count is computed once
/// here instead of once per row.
class QuerySink {
 public:
  QuerySink(const QuerySpec& query, const layout::Schema& schema,
            sim::MemorySystem* memory, const CostModel& cost);

  /// Folds one matched row in. `key_of(col)` reads an integer or packed
  /// char column and `value_of(col)` a numeric one, each charging its own
  /// access. A projection charges arith_cycles per projected column. An
  /// aggregate charges group_hash_cycles once the group key is read, then
  /// per aggregate the expression's arith_cycles and agg_update_cycles.
  template <typename KeyFn, typename ValueFn>
  void Add(KeyFn&& key_of, ValueFn&& value_of) {
    if (query_.aggregates.empty()) {
      for (uint32_t col : query_.projection) {
        checksum_ += schema_.type(col) == layout::ColumnType::kChar
                         ? static_cast<double>(key_of(col) & 0xffff)
                         : value_of(col);
        memory_->CpuWork(cost_.arith_cycles);
      }
      return;
    }
    AggState* states = flat_.data();
    if (!query_.group_by.empty()) {
      GroupKey key;
      key.size = static_cast<uint32_t>(query_.group_by.size());
      for (uint32_t i = 0; i < key.size; ++i) {
        key.values[i] = key_of(query_.group_by[i]);
      }
      memory_->CpuWork(cost_.group_hash_cycles);
      states = groups_.FindOrInsert(key);
    }
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      const AggSpec& spec = query_.aggregates[a];
      double v = 0;
      if (spec.expr >= 0) {
        v = query_.exprs.Eval(spec.expr, value_of);
        memory_->CpuWork(cost_.arith_cycles * ops_[a]);
      }
      states[a].Update(v);
      memory_->CpuWork(cost_.agg_update_cycles);
    }
  }

  /// Rows the sink operator emits (EXPLAIN ANALYZE): every matched row of
  /// a projection, one row per group, or one ungrouped row.
  uint64_t RowsOut(uint64_t rows_matched) const;

  /// Writes the projection checksum or the final aggregate values into
  /// `result`, groups in key order.
  void Finalize(QueryResult* result) const;

 private:
  const QuerySpec& query_;
  const layout::Schema& schema_;
  sim::MemorySystem* memory_;
  const CostModel& cost_;
  double checksum_ = 0;
  std::vector<uint32_t> ops_;  // ExprPool::OpCount per aggregate
  std::vector<AggState> flat_;
  GroupTable<AggState> groups_;
};

}  // namespace relfab::engine

#endif  // RELFAB_ENGINE_SINK_H_
