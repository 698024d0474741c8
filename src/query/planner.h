#ifndef RELFAB_QUERY_PLANNER_H_
#define RELFAB_QUERY_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "engine/cost_model.h"
#include "exec/options.h"
#include "faults/health.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "query/catalog.h"
#include "query/parser.h"
#include "sim/params.h"

namespace relfab::query {

/// Access path chosen for a query. The enum itself lives in exec (the
/// execution layer needs it without depending on the planner); these
/// aliases keep query-side code and call sites unchanged.
using Backend = exec::Backend;
using exec::BackendFromString;
using exec::BackendToString;

/// Shard fan-out section of a plan (set when the table is range-sharded).
struct ShardFanout {
  bool enabled = false;
  uint32_t shards_total = 0;
  /// Surviving shards after pruning the WHERE clause's shard-key range
  /// through ShardedTable::ShardsForRange, ascending. May be empty
  /// (contradictory key range: the query answers without scanning).
  std::vector<uint32_t> shard_ids;
  /// The pruned key range [key_lo, key_hi] (inclusive; int64 extremes
  /// when unbounded). Informational — predicates are still evaluated.
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  /// Distributed-fabric section (set when a cluster is configured).
  /// `ship`, parallel to shard_ids, is the planner's per-shard wire
  /// format: ship the shard's matching rows, or its merged partial
  /// aggregates — whichever models cheaper under the network cost
  /// model. A timing alias: the answer is identical either way.
  bool distributed = false;
  uint32_t nodes = 0;
  std::vector<net::ShipMode> ship;
};

/// An executable plan: the chosen backend plus per-path cost estimates.
struct Plan {
  std::string table;
  Backend backend = Backend::kRow;
  engine::QuerySpec spec;
  double est_cost_row = 0;
  double est_cost_column = 0;  // +inf when no columnar copy exists
  double est_cost_rm = 0;
  double est_cost_index = 0;   // +inf when no applicable index exists
  double est_cost_hybrid = 0;  // +inf without predicates or statistics
  /// Selectivity estimate used for the hybrid decision (1.0 = unknown).
  double est_selectivity = 1.0;
  /// Shard fan-out (enabled only for sharded tables; estimates above
  /// then cover the surviving shards summed, i.e. total work).
  ShardFanout shards;
  std::string explanation;
};

/// The paper's §III-B point made concrete: with Relational Fabric, layout
/// selection stops being a combinatorial search over materialized
/// designs. The planner *constructs* the candidate geometries directly
/// from the query's referenced columns, prices the three access paths
/// with a closed-form mirror of the simulator's cost model, and picks the
/// cheapest. For sharded tables it additionally prunes shards from the
/// WHERE clause's shard-key range and emits a shard-fanout plan.
class Planner {
 public:
  /// `health` (optional) makes planning failure-domain-aware: a dead RM
  /// transformer prices RM/HYBRID at +inf (the plan degrades to a host
  /// path up front, no doomed dispatch), and a surviving shard with zero
  /// live replicas fails the plan with kUnavailable unless the options
  /// allow a partial answer. The planner only *reads* liveness — kill
  /// draws happen at dispatch/selection time, never during planning.
  Planner(const Catalog* catalog, sim::SimParams sim_params,
          engine::CostModel cost_model,
          const faults::HealthRegistry* health = nullptr)
      : catalog_(catalog),
        sim_(sim_params),
        cost_(cost_model),
        health_(health) {
    // relfab-lint: allow(data-check) wiring-time null check: a programming error, never data-dependent
    RELFAB_CHECK(catalog != nullptr);
  }

  /// Plans `parsed`. `options` (may be null = defaults) contributes the
  /// forced-backend override; an infeasible override (COL without a
  /// columnar copy, INDEX without an applicable index, COL/INDEX/HYBRID
  /// on a sharded table) is an InvalidArgument.
  StatusOr<Plan> MakePlan(const ParsedQuery& parsed,
                          const exec::QueryOptions* options = nullptr) const;

  /// Makes sharded planning cluster-aware: with an enabled topology the
  /// planner prices, per surviving shard, shipping materialized rows vs
  /// shipping partial aggregates across the modeled network and records
  /// the cheaper mode in ShardFanout::ship. A disabled topology returns
  /// to single-host planning.
  void set_topology(const net::Topology& topology) { topology_ = topology; }

 private:
  double EstimateRow(const layout::Schema& schema, double n,
                     const engine::QuerySpec& spec) const;
  double EstimateColumn(const layout::Schema& schema, double n,
                        const engine::QuerySpec& spec) const;
  double EstimateRm(const layout::Schema& schema, double n,
                    const engine::QuerySpec& spec) const;
  /// +inf unless the query has an equality predicate on the indexed
  /// column (the point-query case the paper reserves for indexes).
  double EstimateIndex(const TableEntry& entry,
                       const engine::QuerySpec& spec) const;
  /// The §III-B hybrid plan: worth it only when ANALYZE statistics show
  /// the conjunction is selective; +inf without predicates or stats.
  double EstimateHybrid(const TableEntry& entry,
                        const engine::QuerySpec& spec,
                        double selectivity) const;

  StatusOr<Plan> MakeShardedPlan(const ParsedQuery& parsed,
                                 const TableEntry& entry,
                                 const exec::QueryOptions* options) const;

  /// Fills ShardFanout::ship (rows vs aggs per surviving shard) from the
  /// modeled transfer + coordinator-merge costs.
  void ChooseShipModes(const shard::ShardedTable& table,
                       const engine::QuerySpec& spec, ShardFanout* out) const;

  const Catalog* catalog_;
  sim::SimParams sim_;
  engine::CostModel cost_;
  const faults::HealthRegistry* health_;
  net::Topology topology_;
};

}  // namespace relfab::query

#endif  // RELFAB_QUERY_PLANNER_H_
