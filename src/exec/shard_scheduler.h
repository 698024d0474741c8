#ifndef RELFAB_EXEC_SHARD_SCHEDULER_H_
#define RELFAB_EXEC_SHARD_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "engine/cost_model.h"
#include "engine/query.h"
#include "exec/exec_context.h"
#include "exec/options.h"
#include "faults/health.h"
#include "layout/schema.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "obs/registry.h"
#include "shard/sharded_table.h"
#include "sim/memory_system.h"
#include "sim/params.h"

namespace relfab::exec {

/// Prices one shard's partial on its way to the coordinator, for the
/// planner's rows-vs-aggs choice and the scheduler's charge alike. A
/// partial is `units` records: matching rows of the referenced columns
/// (ship=rows), or a group key plus one 8-byte slot per partial
/// aggregate (ship=aggs; AVG ships as a SUM plus a shared hidden COUNT).
class ShipPricer {
 public:
  ShipPricer(const layout::Schema& schema, const engine::QuerySpec& spec,
             const sim::NetworkParams& network,
             const engine::CostModel& cost);

  /// The node -> coordinator transfer of `units` records.
  net::Transfer Ship(net::ShipMode mode, uint64_t units) const;

  /// Coordinator deserialize + merge of `units` records: units *
  /// (ser_row + slots * agg_update) for ship=rows, units * slots *
  /// (ser_agg + agg_update) for ship=aggs. A double, so the planner can
  /// price fractional estimates.
  double Ingest(net::ShipMode mode, double units) const;

 private:
  uint32_t row_bytes_;
  uint32_t key_bytes_;
  size_t slots_;
  net::NetworkModel network_;
  double agg_update_cycles_;
};

/// Node hosting replica `replica` of `table`'s shard `shard`: its
/// placement node in a cluster, node 0 single-host.
uint32_t ReplicaNode(const net::Topology& topology,
                     const shard::ShardedTable& table, uint32_t shard,
                     uint32_t replica);

/// Whether a replica can serve, read without drawing a kill: it is
/// alive and, in a cluster, so is its node. Replica selection applies
/// the same rule after drawing "node.kill" and "shard.kill".
bool ReplicaLive(const faults::HealthRegistry& health,
                 const net::Topology& topology,
                 const shard::ShardedTable& table,
                 const std::string& table_name, uint32_t shard,
                 uint32_t replica);

/// A shard none of whose `replicas` can serve, spelled once: the
/// kUnavailable status a query fails with (at plan time or at replica
/// selection) and the flight-recorder line the scheduler logs.
struct UnavailableShard {
  Status status;
  std::string recorder_line;
};
UnavailableShard NoLiveReplica(const std::string& table_name, uint32_t shard,
                               uint32_t replicas, bool cluster);

/// Parallel shard fan-out: runs one scan per surviving shard on a pool
/// of host worker threads and merges the partial results shard-major.
/// One path serves a single host and a cluster alike.
///
/// Determinism contract (the property shard_exec_test and net_test pin):
/// answers AND simulated cycles are bit-identical at any host thread
/// count. Three mechanisms deliver it:
///
///  1. Worker-private sim rigs (bench_util.h's PerWorker pattern): each
///     host worker owns a private MemorySystem + RmEngine, so shard
///     scans never share simulator state.
///  2. MemorySystem::ResetAddressSpace() at the head of every shard
///     task: the rig is returned to the cold, freshly-booted state —
///     including the simulated allocator — so a shard's cycles are a
///     pure function of (sim params, shard data, query), independent of
///     which rig ran it or what that rig ran before. Rigs are therefore
///     interchangeable host-side resources, never simulated places.
///  3. Shard-major merge: partials are combined in shard-id order after
///     all tasks joined, never in completion order.
///
/// Cycle semantics: each serving shard is charged to a simulated clock.
/// Single-host, the shards are dealt shard-major onto P *simulated*
/// workers (P = QueryOptions::max_threads, or one per shard when <= 0).
/// With a cluster configured (docs/scaling.md "Distributed fabric"), the
/// clock is the node hosting the shard's serving replica
/// (net::Topology placement), so the fan-out width is the node count.
/// A clock's time is the sum of its shards' cycles; the fan-out costs
/// max-over-clocks (they run in parallel) plus the coordinator's merge
/// of the partials. Host threads only change wall time.
///
/// Each shard's partial reaches the coordinator as a net::Transfer: a
/// zero loopback single-host, priced by ShipPricer in a cluster (ship
/// modes are timing aliases; answers never change). The serialize cost
/// lands on the shard's node clock; the coordinator ingests transfers
/// serially (shard-major), paying wire + ShipPricer::Ingest on top of
/// the slowest node.
///
/// Per-shard fault isolation: each shard task gets a private
/// FaultInjector seeded from (plan seed, shard id), so a fault hits the
/// same shard regardless of scheduling. A fabric fault inside one shard
/// degrades only that shard to the Volcano path (PR 3's fallback); the
/// failed attempt's cycles stay on that shard's clock and the query
/// still answers.
///
/// Failure domains (docs/robustness.md): before fan-out the scheduler
/// selects, per shard, the lowest-index ReplicaLive replica, drawing
/// one "node.kill" (cluster only) and one "shard.kill" per selection
/// attempt, and charges CostModel::shard_failover_cycles per dead
/// replica skipped. A shard with no live replica fails the query with
/// NoLiveReplica (or is skipped with QueryResult::partial under
/// QueryOptions::allow_partial). All health access happens in the
/// single-threaded pre-fan-out / post-join sections, so death schedules
/// and failovers are bit-identical at any host thread count. With
/// QueryOptions::deadline_cycles set, shards whose simulated completion
/// lands past the deadline are cancelled and the query fails with
/// kDeadlineExceeded, EXPLAIN ANALYZE profile intact.
class ShardScheduler {
 public:
  // Both out of line: Rig is incomplete here.
  explicit ShardScheduler(sim::SimParams sim_params, int host_threads = 0);
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// One shard-fanout execution request (built by query::Executor from a
  /// sharded plan). All pointers are non-owning.
  struct Request {
    const shard::ShardedTable* table = nullptr;
    /// Catalog name of the table — the failure-domain component names
    /// ("<table>.shard<i>.r<j>") are derived from it.
    std::string table_name;
    const engine::QuerySpec* spec = nullptr;
    /// Per-shard scan path; sharded plans support kRow and
    /// kRelationalMemory.
    Backend backend = Backend::kRow;
    /// Surviving shards after planner pruning, ascending.
    const std::vector<uint32_t>* shard_ids = nullptr;
    /// Per-shard ship modes, parallel to shard_ids (planner's
    /// rows-vs-aggs choice). Null or short = kAggs. Only consulted in
    /// distributed mode.
    const std::vector<net::ShipMode>* ship = nullptr;
    engine::CostModel cost;
  };

  /// Runs the fan-out and merges. Uses ctx.options.max_threads for the
  /// simulated width, ctx.injector's plan for per-shard fault streams,
  /// ctx.profile for EXPLAIN ANALYZE per-shard meters and ctx.tracer
  /// for the "query.shard_fanout" span.
  StatusOr<engine::QueryResult> Execute(const Request& req,
                                        const ExecContext& ctx);

  /// Host worker pool size; <= 0 picks hardware concurrency. Affects
  /// wall time only — never answers or cycles (tests pin this).
  void set_host_threads(int n) { host_threads_ = n; }
  int host_threads() const { return host_threads_; }

  /// Switches the scheduler into distributed mode: every subsequent
  /// fan-out charges shards to the clocks of `topology`'s nodes and
  /// prices their partials as network transfers. A disabled topology
  /// returns to single-host execution.
  void ConfigureCluster(const net::Topology& topology);
  const net::Topology& topology() const { return topology_; }

  // --- lifetime counters (across all Execute calls) ---
  uint64_t queries() const { return queries_; }
  uint64_t shards_scanned() const { return shards_scanned_; }
  uint64_t shards_pruned() const { return shards_pruned_; }
  uint64_t shards_degraded() const { return shards_degraded_; }
  uint64_t shard_faults_injected() const { return faults_injected_; }
  /// Dead replicas skipped during replica selection (lifetime sum).
  uint64_t shards_failed_over() const { return shards_failed_over_; }
  /// Shards skipped (allow_partial) or failed for lack of a live replica.
  uint64_t shards_unavailable() const { return shards_unavailable_; }
  /// Shards cancelled by a cycle-domain deadline.
  uint64_t shards_cancelled() const { return shards_cancelled_; }

  // --- network counters (distributed mode; zero single-host) ---
  /// Payload bytes shipped node → coordinator (lifetime sum).
  uint64_t net_bytes() const { return net_bytes_; }
  uint64_t net_messages() const { return net_messages_; }
  /// Shards whose partial shipped as materialized rows / as partial
  /// aggregates.
  uint64_t shards_ship_rows() const { return shards_ship_rows_; }
  uint64_t shards_ship_aggs() const { return shards_ship_aggs_; }

  /// Exports "shard.*" counters and the per-shard cycle distribution
  /// ("shard.cycles"); in distributed mode also "net.*" counters
  /// including per-node "net.node<k>.bytes". Idempotent (Set/assign,
  /// not Inc/Merge).
  void ExportTo(obs::Registry* registry) const;

 private:
  /// One worker-private simulation rig, reused across tasks and Execute
  /// calls; every task calls ResetAddressSpace() before touching it.
  struct Rig;
  /// Outcome of one shard scan, filled by its worker, read post-join.
  struct ShardRun;

  Rig& RigForSlot(int slot);
  /// One shard scan on the calling worker's rig.
  void RunShardTask(const Request& req, const engine::QuerySpec& partial_spec,
                    const ExecContext& ctx, uint32_t shard_id, Rig* rig,
                    ShardRun* out);

  sim::SimParams sim_params_;
  int host_threads_ = 0;
  net::Topology topology_;

  Mutex rig_mu_;
  /// The slot vector is guarded; each built Rig itself is worker-private
  /// (one slot per host worker, see RigForSlot).
  std::vector<std::unique_ptr<Rig>> rigs_ RELFAB_GUARDED_BY(rig_mu_);

  // Updated single-threaded after the pool joins.
  uint64_t queries_ = 0;
  uint64_t shards_scanned_ = 0;
  uint64_t shards_pruned_ = 0;
  uint64_t shards_degraded_ = 0;
  uint64_t faults_injected_ = 0;
  uint64_t shards_failed_over_ = 0;
  uint64_t shards_unavailable_ = 0;
  uint64_t shards_cancelled_ = 0;
  uint64_t net_bytes_ = 0;
  uint64_t net_messages_ = 0;
  uint64_t net_rows_shipped_ = 0;
  uint64_t net_agg_values_shipped_ = 0;
  uint64_t shards_ship_rows_ = 0;
  uint64_t shards_ship_aggs_ = 0;
  /// Lifetime payload bytes per node (index = node id).
  std::vector<uint64_t> node_bytes_;
  obs::Histogram shard_cycles_;
};

}  // namespace relfab::exec

#endif  // RELFAB_EXEC_SHARD_SCHEDULER_H_
