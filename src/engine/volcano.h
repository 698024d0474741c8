#ifndef RELFAB_ENGINE_VOLCANO_H_
#define RELFAB_ENGINE_VOLCANO_H_

#include "common/statusor.h"
#include "engine/cost_model.h"
#include "engine/query.h"
#include "layout/row_table.h"
#include "obs/query_profile.h"

namespace relfab::engine {

/// The paper's ROW baseline: an in-memory row-store executing queries
/// volcano-style, tuple-at-a-time through a Scan -> Filter -> Aggregate/
/// Project operator chain. Every field access performs a demand read of
/// the base row data, so scanning narrow column subsets of wide rows
/// drags whole cache lines through the hierarchy — the cache pollution
/// Relational Fabric removes.
class VolcanoEngine {
 public:
  explicit VolcanoEngine(const layout::RowTable* table,
                         CostModel cost = CostModel::A53Defaults())
      : table_(table), cost_(cost) {
    RELFAB_CHECK(table != nullptr);
  }

  /// Executes `query` over the whole table, charging the simulator.
  /// result.sim_cycles is the memory system's elapsed cycles after the
  /// query (callers time one query per ResetTiming window).
  StatusOr<QueryResult> Execute(const QuerySpec& query);

  /// Executes `query` over the given candidate rows only (e.g. the
  /// result of an index lookup). Predicates are still evaluated — the
  /// candidates may be a superset of the qualifying rows.
  /// result.rows_scanned counts the candidates.
  StatusOr<QueryResult> ExecuteOnRowIds(const QuerySpec& query,
                                        const std::vector<uint64_t>& rows);

  const layout::RowTable& table() const { return *table_; }
  const CostModel& cost_model() const { return cost_; }

  /// Attaches a per-operator profiler (EXPLAIN ANALYZE). Null — the
  /// default — keeps every profiling call site a single pointer test.
  void set_profiler(obs::OpProfiler* profiler) { prof_ = profiler; }

 private:
  const layout::RowTable* table_;
  CostModel cost_;
  obs::OpProfiler* prof_ = nullptr;
};

/// Rows per ScanOperator materialization chunk of `row_bytes`-wide rows:
/// the most rows whose bytes fit in `l1_sets - 1` lines. A chunk can
/// start on the previous chunk's last line, so from any start offset it
/// then spans at most `l1_sets` distinct lines, none aliasing another in
/// L1, and every chunk line is still the MRU of its set when the consumer
/// reads it. At least one row.
uint64_t ScanChunkRows(uint64_t row_bytes, uint64_t l1_sets,
                       uint64_t line_bytes);

/// Packs a char field (<= 8 bytes) into an int64 group-key component.
int64_t PackCharKey(std::string_view bytes);

}  // namespace relfab::engine

#endif  // RELFAB_ENGINE_VOLCANO_H_
