#ifndef RELFAB_CORE_FABRIC_H_
#define RELFAB_CORE_FABRIC_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"
#include "engine/cost_model.h"
#include "engine/query.h"
#include "exec/exec_context.h"
#include "exec/options.h"
#include "exec/shard_scheduler.h"
#include "faults/fault_plan.h"
#include "faults/health.h"
#include "faults/injector.h"
#include "index/btree.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "mvcc/transaction.h"
#include "mvcc/versioned_table.h"
#include "net/topology.h"
#include "obs/query_profile.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "query/catalog.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/planner.h"
#include "relmem/rm_engine.h"
#include "shard/sharded_table.h"
#include "sim/memory_system.h"

namespace relfab {

/// The library façade: one simulated platform (memory hierarchy +
/// Relational Memory engine) with a catalog of tables and a SQL front
/// end. Typical use:
///
///   Fabric fabric;
///   auto* t = fabric.CreateTable("sensors", schema).value();
///   ... append rows ...
///   auto view = fabric.ConfigureView("sensors", geometry).value();
///   // or:
///   auto result = fabric.ExecuteSql(
///       "SELECT SUM(temp) FROM sensors WHERE site < 10").value();
///   // with per-statement knobs:
///   auto analyzed = fabric.ExecuteSql(sql, {.analyze = true}).value();
///
/// Plain tables hold a single row-oriented copy (the Relational Fabric
/// design point); MaterializeColumnarCopy adds the duplicated columnar
/// baseline so the planner may also choose COL. Versioned tables add
/// MVCC with snapshot isolation (paper §III-C). Sharded tables
/// (CreateShardedTable) are range-partitioned on an int64 key; the
/// planner prunes shards from WHERE-clause key ranges and the shard
/// scheduler scans the survivors in parallel.
class Fabric {
 public:
  /// Per-statement execution knobs (analyze / forced_backend /
  /// max_threads); see exec::QueryOptions.
  using QueryOptions = exec::QueryOptions;

  explicit Fabric(sim::SimParams sim_params = sim::SimParams::ZynqA53Defaults(),
                  engine::CostModel cost_model =
                      engine::CostModel::A53Defaults());

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::MemorySystem& memory() { return memory_; }
  relmem::RmEngine& rm() { return rm_; }
  const query::Catalog& catalog() const { return catalog_; }
  const engine::CostModel& cost_model() const { return cost_model_; }

  // --- tables ---

  /// Creates an empty row-oriented table registered under `name`.
  StatusOr<layout::RowTable*> CreateTable(const std::string& name,
                                          layout::Schema schema,
                                          uint64_t capacity = 0);

  /// Registers an existing table (e.g. from tpch::GenerateLineitem); the
  /// Fabric takes ownership.
  StatusOr<layout::RowTable*> AdoptTable(const std::string& name,
                                         layout::RowTable table);

  /// Materializes the duplicated columnar copy of `name` (the baseline a
  /// Relational Fabric deployment would not need).
  Status MaterializeColumnarCopy(const std::string& name);

  /// Builds a B+-tree over an int64 column of `name` for point queries
  /// (paper §III-A). The build cost is charged to the simulator. The
  /// index reflects the rows present at build time; rebuild after bulk
  /// appends.
  Status CreateIndex(const std::string& name,
                     const std::string& column_name);

  /// ANALYZE: collects histogram statistics for `name`, enabling
  /// selectivity-aware planning (including the HYBRID backend). Re-run
  /// after bulk appends; collection is an offline task and not charged.
  Status AnalyzeTable(const std::string& name);

  StatusOr<layout::RowTable*> GetTable(const std::string& name);

  // --- sharded tables ---

  /// Creates a range-sharded table on int64 column `key_column_name`,
  /// configured by `options` (designated-initializer friendly):
  ///
  ///   fabric.CreateShardedTable("m", schema, "k",
  ///                             {.splits = {1000, 2000}, .replicas = 2});
  ///
  /// options.splits (strictly increasing, n points => n+1 shards) set
  /// the ranges, shard i covering [splits[i-1], splits[i]) with open
  /// ends. Append rows via shard::ShardedTable::Append (routed by key).
  /// SQL over the table plans a shard fan-out: the planner prunes shards
  /// from the WHERE clause's key range and the shard scheduler runs one
  /// scan per survivor in parallel (QueryOptions::max_threads sets the
  /// simulated width). options.replicas (>= 1) sets the per-shard
  /// replication factor for the failure-domain layer: with R > 1 a
  /// killed replica fails over to the next live one (see
  /// docs/robustness.md). options.placement chooses how shards/replicas
  /// map onto nodes once a cluster is configured (ConfigureCluster).
  StatusOr<shard::ShardedTable*> CreateShardedTable(
      const std::string& name, layout::Schema schema,
      const std::string& key_column_name,
      shard::ShardedTableOptions options);

  StatusOr<shard::ShardedTable*> GetShardedTable(const std::string& name);

  // --- versioned (HTAP) tables ---

  /// Creates an MVCC table; writes go through its TransactionManager.
  StatusOr<mvcc::VersionedTable*> CreateVersionedTable(
      const std::string& name, const layout::Schema& user_schema,
      uint32_t key_column, uint64_t capacity = 0);

  StatusOr<mvcc::VersionedTable*> GetVersionedTable(const std::string& name);
  StatusOr<mvcc::TransactionManager*> GetTransactionManager(
      const std::string& name);

  // --- ephemeral access ---

  /// Configures an ephemeral view of arbitrary geometry over a table
  /// (works for plain and versioned tables; for the latter pass a
  /// snapshot filter inside the geometry, e.g. table->SnapshotFilter()).
  /// Sharded tables use ConfigureShardRange instead.
  StatusOr<relmem::EphemeralView> ConfigureView(const std::string& name,
                                                relmem::Geometry geometry);

  /// Ephemeral views over the shards of sharded table `name`
  /// intersecting key range [lo, hi] (shard-major; boundary shards get
  /// residual key predicates pushed into the fabric).
  StatusOr<std::vector<relmem::EphemeralView>> ConfigureShardRange(
      const std::string& name, const relmem::Geometry& geometry, int64_t lo,
      int64_t hi);

  // --- SQL ---

  struct SqlResult {
    query::Plan plan;
    engine::QueryResult result;
    /// Filled when QueryOptions::analyze was set (EXPLAIN ANALYZE);
    /// otherwise default-constructed.
    obs::QueryProfile profile;
  };

  /// Parses, plans (constructively — no layout search) and executes with
  /// per-statement `options`. The single SQL entry point: EXPLAIN
  /// ANALYZE is options.analyze, backend forcing is
  /// options.forced_backend, and the simulated shard fan-out width is
  /// options.max_threads.
  StatusOr<SqlResult> ExecuteSql(std::string_view sql,
                                 const QueryOptions& options);

  /// Default-options convenience.
  StatusOr<SqlResult> ExecuteSql(std::string_view sql) {
    return ExecuteSql(sql, QueryOptions{});
  }

  /// Plans without executing (EXPLAIN).
  StatusOr<query::Plan> ExplainSql(std::string_view sql,
                                   const QueryOptions& options = {});

  // --- cluster / distributed fabric ---

  /// Switches the fabric into distributed mode (docs/scaling.md
  /// "Distributed fabric"): `config.nodes` simulated nodes, each a
  /// clock in the cycle model, connected by a network priced by
  /// `config.network`. Sharded-table fan-outs then charge each shard to
  /// the node hosting its serving replica and ship each shard's partial
  /// across the modeled network — as materialized rows or partial
  /// aggregates, whichever the planner prices cheaper (ship=rows|aggs
  /// in EXPLAIN). The one cluster entry point: topology and network
  /// parameters are both configured here. Even a 1-node cluster keeps
  /// the distributed semantics — its shard partials still pay the
  /// modeled network. Structured kInvalidArgument on a malformed config.
  Status ConfigureCluster(const net::ClusterConfig& config);

  /// The active cluster topology; disabled (nodes() == 0) until
  /// ConfigureCluster succeeds.
  const net::Topology& topology() const { return scheduler_.topology(); }

  /// Human-readable cluster view (the shell's `\cluster`): topology
  /// summary, per sharded table the shard → node/replica placement, and
  /// each component's health state.
  std::string DescribeCluster() const;

  // --- observability ---

  /// The stack-wide metrics registry. CollectMetrics refreshes it from
  /// every component; callers may also add their own series.
  obs::Registry& registry() { return registry_; }

  /// Snapshots every component's counters into registry() and returns it:
  /// memory hierarchy ("sim.*"), RM engine ("rm.*"), each versioned
  /// table's transaction manager ("mvcc.*", summed across tables), the
  /// shard scheduler ("shard.*") and fault injection ("faults.*").
  obs::Registry& CollectMetrics();

  /// The span tracer, clocked by the simulated memory clock. Disabled by
  /// default; EnableTracing attaches it across the stack.
  obs::Tracer& tracer() { return tracer_; }

  /// Turns span collection on or off for the query executor, the RM
  /// engine and all transaction managers.
  void EnableTracing(bool enabled = true);

  // --- workload telemetry (relfab::obs v2) ---

  /// Creates (or replaces) the workload telemetry bundle: cycle-domain
  /// time-series, latency digests, structured query log and flight
  /// recorder, all fed from ExecuteSql. Attaches the flight recorder to
  /// the tracer so recent spans are captured even with full tracing
  /// off. With an empty config.tracked a default set of shard/fault
  /// series is sampled into the time-series.
  obs::WorkloadTelemetry& EnableTelemetry(obs::TelemetryConfig config = {});

  /// Destroys the bundle and detaches the flight recorder — the
  /// zero-overhead default: with telemetry off, answers and simulated
  /// cycles are bit-identical to a build without telemetry at all.
  void DisableTelemetry();

  /// The active bundle; nullptr when telemetry is disabled.
  obs::WorkloadTelemetry* telemetry() { return telemetry_.get(); }

  // --- fault injection ---

  /// Arms the given fault plan across the whole stack (DRAM ECC, RM
  /// descriptor/stall/gather, MVCC commit; RS arming is per-RsEngine —
  /// storage rigs own their SsdModel). An unarmed (empty) plan disarms.
  /// The constructor calls this automatically with $RELFAB_FAULTS, so
  /// most callers never touch it; tests use it to arm plans directly.
  /// Shard tasks derive private per-shard injectors from the armed plan.
  void ArmFaults(faults::FaultPlan plan);

  /// The active injector; nullptr when unarmed. Fault counters are
  /// folded into CollectMetrics() under "faults.*".
  faults::FaultInjector* fault_injector() { return injector_.get(); }

  /// Outcome of parsing $RELFAB_FAULTS at construction: ok when unset or
  /// well-formed, kInvalidArgument (with the parse message) when
  /// malformed — in which case the fabric runs unarmed and the caller
  /// decides whether to warn or exit. Never aborts the process.
  const Status& env_faults_status() const { return env_faults_status_; }

  /// Session-wide failure-domain health (kill draws, circuit breaker,
  /// replica liveness). Armed by ArmFaults from the plan's ".kill"
  /// rules; consulted by the planner and shard scheduler. Exported under
  /// "health.*" by CollectMetrics.
  faults::HealthRegistry& health() { return health_; }

  /// The shard fan-out scheduler (host thread pool + worker rigs).
  exec::ShardScheduler& shard_scheduler() { return scheduler_; }

 private:
  StatusOr<SqlResult> ExecuteSqlInternal(std::string_view sql,
                                         const QueryOptions& options);

  sim::MemorySystem memory_;
  relmem::RmEngine rm_;
  engine::CostModel cost_model_;
  query::Catalog catalog_;
  query::Parser parser_;
  query::Planner planner_;
  query::Executor executor_;
  exec::ShardScheduler scheduler_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<obs::WorkloadTelemetry> telemetry_;
  std::unique_ptr<faults::FaultInjector> injector_;
  faults::HealthRegistry health_;
  Status env_faults_status_ = Status::Ok();
  std::map<std::string, std::unique_ptr<layout::RowTable>> tables_;
  std::map<std::string, std::unique_ptr<layout::ColumnTable>> column_copies_;
  std::map<std::string, std::unique_ptr<index::BTreeIndex>> indexes_;
  std::map<std::string, std::unique_ptr<query::TableStats>> stats_;
  std::map<std::string, std::unique_ptr<shard::ShardedTable>> sharded_;
  std::map<std::string, std::unique_ptr<mvcc::VersionedTable>> versioned_;
  std::map<std::string, std::unique_ptr<mvcc::TransactionManager>>
      txn_managers_;
};

}  // namespace relfab

#endif  // RELFAB_CORE_FABRIC_H_
