#include "exec/shard_scheduler.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "engine/rm_exec.h"
#include "engine/volcano.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "layout/row_table.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::exec {

struct ShardScheduler::Rig {
  explicit Rig(const sim::SimParams& params) : memory(params), rm(&memory) {}

  sim::MemorySystem memory;
  relmem::RmEngine rm;
};

ShardScheduler::ShardScheduler(sim::SimParams sim_params, int host_threads)
    : sim_params_(sim_params), host_threads_(host_threads) {}

ShardScheduler::~ShardScheduler() = default;

struct ShardScheduler::ShardRun {
  Status status = Status::Ok();
  engine::QueryResult result;
  uint64_t cycles = 0;
  uint64_t shard_rows = 0;
  bool degraded = false;
  std::string cause;
  obs::MeterSample sample;
  uint64_t injected = 0;
  uint64_t exhausted = 0;
  // --- failure-domain outcome, filled in single-threaded code ---
  /// False when the shard had no live replica and was skipped
  /// (allow_partial) — the fields above are then never written.
  bool serving = true;
  /// Replica index that served the scan (replicas are timing aliases, so
  /// this changes cycles/bookkeeping only, never the answer).
  int replica = 0;
  /// Dead replicas skipped before `replica` answered.
  uint32_t failovers = 0;
  /// True when a cycle-domain deadline cancelled this shard post-join.
  bool cancelled = false;
  // --- cluster outcome (single-threaded pre/post sections) ---
  /// Node hosting the serving replica: the shard's clock in a cluster.
  uint32_t node = 0;
  /// Wire format of this shard's partial (planner's choice).
  net::ShipMode ship = net::ShipMode::kAggs;
  /// The shard → coordinator transfer; all zero single-host.
  net::Transfer transfer;
};

namespace {

/// The per-shard decomposition of the query's aggregates into
/// merge-closed partials. COUNT/SUM/MIN/MAX are closed under their own
/// merge (sum/sum/min/max of per-shard finals); AVG is not, so it is
/// rewritten to a per-shard SUM plus one hidden per-shard COUNT and
/// reassembled as merged_sum / merged_count after the fan-out. Partial
/// slot i carries original aggregate i; the hidden COUNT comes last.
struct PartialPlan {
  engine::QuerySpec spec;            // aggregates replaced by partials
  std::vector<engine::AggFunc> slot_func;  // merge rule per partial slot
  int count_slot = -1;               // hidden COUNT slot, -1 if unused
};

bool HasAvg(const engine::QuerySpec& spec) {
  return std::any_of(spec.aggregates.begin(), spec.aggregates.end(),
                     [](const engine::AggSpec& agg) {
                       return agg.func == engine::AggFunc::kAvg;
                     });
}

/// Partial slots a shard result carries: one per aggregate plus the
/// hidden COUNT shared by every AVG.
size_t PartialSlotCount(const engine::QuerySpec& spec) {
  return spec.aggregates.size() + (HasAvg(spec) ? 1 : 0);
}

PartialPlan MakePartialPlan(const engine::QuerySpec& spec) {
  PartialPlan pp;
  pp.spec = spec;
  pp.spec.aggregates.clear();
  for (const engine::AggSpec& agg : spec.aggregates) {
    engine::AggSpec partial = agg;
    if (agg.func == engine::AggFunc::kAvg) {
      partial.func = engine::AggFunc::kSum;
    }
    pp.slot_func.push_back(partial.func);
    pp.spec.aggregates.push_back(partial);
  }
  if (HasAvg(spec)) {
    // One shared denominator serves every AVG.
    pp.count_slot = static_cast<int>(pp.spec.aggregates.size());
    pp.slot_func.push_back(engine::AggFunc::kCount);
    pp.spec.aggregates.push_back(engine::AggSpec{engine::AggFunc::kCount, -1});
  }
  return pp;
}

/// Merges one partial slot value into the accumulator.
void CombineSlot(engine::AggFunc func, bool first, double v, double* acc) {
  switch (func) {
    case engine::AggFunc::kCount:
    case engine::AggFunc::kSum:
      *acc += v;
      return;
    case engine::AggFunc::kMin:
      if (first || v < *acc) *acc = v;
      return;
    case engine::AggFunc::kMax:
      if (first || v > *acc) *acc = v;
      return;
    case engine::AggFunc::kAvg:
      break;  // rewritten away by MakePartialPlan
  }
  RELFAB_CHECK(false) << "AVG survived partial decomposition";
}

/// Maps merged partial slots back to the original aggregate list.
std::vector<double> FinalizeSlots(const engine::QuerySpec& original,
                                  const PartialPlan& pp, const double* slots) {
  std::vector<double> out;
  out.reserve(original.aggregates.size());
  for (size_t i = 0; i < original.aggregates.size(); ++i) {
    const double v = slots[i];
    if (original.aggregates[i].func == engine::AggFunc::kAvg) {
      const double cnt = slots[static_cast<size_t>(pp.count_slot)];
      out.push_back(cnt > 0 ? v / cnt : 0);
    } else {
      out.push_back(v);
    }
  }
  return out;
}

/// Per-shard fault plan: same rules, seed mixed with the shard id so
/// every shard draws an independent — but scheduling-invariant — fault
/// stream. The same shard faults at the same points no matter which
/// worker runs it or how many host threads exist.
faults::FaultPlan PlanForShard(const faults::FaultPlan& base,
                               uint32_t shard_id) {
  faults::FaultPlan plan = base;
  uint64_t h = base.seed ^ (0x9e3779b97f4a7c15ull * (shard_id + 1));
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  plan.seed = h;
  return plan;
}

}  // namespace

ShipPricer::ShipPricer(const layout::Schema& schema,
                       const engine::QuerySpec& spec,
                       const sim::NetworkParams& network,
                       const engine::CostModel& cost)
    : row_bytes_(0),
      key_bytes_(static_cast<uint32_t>(spec.group_by.size()) * 8),
      slots_(PartialSlotCount(spec)),
      network_(network, cost.net_serialize_row_cycles,
               cost.net_serialize_agg_cycles),
      agg_update_cycles_(cost.agg_update_cycles) {
  for (uint32_t c : spec.ReferencedColumns(schema)) {
    row_bytes_ += schema.width(c);
  }
}

net::Transfer ShipPricer::Ship(net::ShipMode mode, uint64_t units) const {
  return mode == net::ShipMode::kRows
             ? network_.ShipRows(units, row_bytes_)
             : network_.ShipAggs(units, key_bytes_, slots_);
}

double ShipPricer::Ingest(net::ShipMode mode, double units) const {
  if (mode == net::ShipMode::kRows) {
    return units * (network_.serialize_row_cycles() +
                    static_cast<double>(slots_) * agg_update_cycles_);
  }
  return units * static_cast<double>(slots_) *
         (network_.serialize_agg_cycles() + agg_update_cycles_);
}

uint32_t ReplicaNode(const net::Topology& topology,
                     const shard::ShardedTable& table, uint32_t shard,
                     uint32_t replica) {
  return topology.enabled() ? topology.NodeFor(shard, replica,
                                               table.num_shards(),
                                               table.placement())
                            : 0;
}

bool ReplicaLive(const faults::HealthRegistry& health,
                 const net::Topology& topology,
                 const shard::ShardedTable& table,
                 const std::string& table_name, uint32_t shard,
                 uint32_t replica) {
  return health.alive(shard::ReplicaName(table_name, shard, replica)) &&
         (!topology.enabled() ||
          health.alive(net::Topology::NodeName(
              ReplicaNode(topology, table, shard, replica))));
}

UnavailableShard NoLiveReplica(const std::string& table_name, uint32_t shard,
                               uint32_t replicas, bool cluster) {
  const std::string what =
      "shard " + std::to_string(shard) + " of '" + table_name + "'";
  const std::string dead =
      std::to_string(replicas) +
      (cluster ? " replica(s) dead or on dead nodes" : " replica(s) dead");
  return {Status::Unavailable(
              what + " has no live replica (" + dead +
              "); set allow_partial to answer from the survivors"),
          what + " unavailable: all " + dead};
}

ShardScheduler::Rig& ShardScheduler::RigForSlot(int slot) {
  MutexLock lock(&rig_mu_);
  if (static_cast<size_t>(slot) >= rigs_.size()) {
    rigs_.resize(static_cast<size_t>(slot) + 1);
  }
  if (!rigs_[static_cast<size_t>(slot)]) {
    rigs_[static_cast<size_t>(slot)] = std::make_unique<Rig>(sim_params_);
  }
  return *rigs_[static_cast<size_t>(slot)];
}

void ShardScheduler::RunShardTask(const Request& req,
                                  const engine::QuerySpec& partial_spec,
                                  const ExecContext& ctx, uint32_t shard_id,
                                  Rig* rig, ShardRun* out) {
  sim::MemorySystem* memory = &rig->memory;
  relmem::RmEngine* rm = &rig->rm;
  memory->ResetAddressSpace();

  // Private per-shard injector: armed only when the stack is armed.
  std::unique_ptr<faults::FaultInjector> local;
  if (ctx.injector != nullptr && ctx.injector->plan().armed()) {
    local = std::make_unique<faults::FaultInjector>(
        PlanForShard(ctx.injector->plan(), shard_id));
  }
  memory->set_fault_injector(local.get());
  rm->set_fault_injector(local.get());

  const layout::RowTable& shard = req.table->shard(shard_id);
  out->shard_rows = shard.num_rows();
  layout::RowTable alias = layout::RowTable::TimingAlias(shard, memory);

  StatusOr<engine::QueryResult> result =
      Status::Internal("shard backend not run");
  switch (req.backend) {
    case Backend::kRow: {
      engine::VolcanoEngine eng(&alias, req.cost);
      result = eng.Execute(partial_spec);
      break;
    }
    case Backend::kRelationalMemory: {
      engine::RmExecEngine eng(&alias, rm, req.cost);
      result = eng.Execute(partial_spec);
      if (!result.ok() && faults::IsFabricFault(result.status())) {
        // PR 3's degradation, scoped to this shard: the fabric path died
        // after its retries, so only this shard re-runs on the host row
        // engine. The failed attempt's cycles stay on this shard's
        // clock; every other shard is untouched.
        out->degraded = true;
        out->cause = result.status().ToString();
        engine::VolcanoEngine host(&alias, req.cost);
        result = host.Execute(partial_spec);
      }
      break;
    }
    default:
      result = Status::InvalidArgument(
          "sharded plans execute on ROW or RM, got backend " +
          std::string(BackendToString(req.backend)));
      break;
  }

  if (local != nullptr) {
    out->injected = local->total_injected();
    out->exhausted = local->total_exhausted();
  }
  memory->set_fault_injector(nullptr);
  rm->set_fault_injector(nullptr);

  if (!result.ok()) {
    out->status = result.status();
    return;
  }
  out->result = std::move(*result);
  out->cycles = memory->ElapsedCycles();
  out->sample = memory->Sample();
}

void ShardScheduler::ConfigureCluster(const net::Topology& topology) {
  topology_ = topology;
  if (node_bytes_.size() < topology_.nodes()) {
    node_bytes_.resize(topology_.nodes(), 0);
  }
}

StatusOr<engine::QueryResult> ShardScheduler::Execute(const Request& req,
                                                      const ExecContext& ctx) {
  RELFAB_CHECK(req.table != nullptr && req.spec != nullptr &&
               req.shard_ids != nullptr);
  const bool cluster = topology_.enabled();
  const std::vector<uint32_t>& ids = *req.shard_ids;
  const uint32_t total = req.table->num_shards();
  const uint32_t replicas = req.table->num_replicas();
  const uint64_t now = ctx.tracer != nullptr ? ctx.tracer->Now() : 0;
  ++queries_;

  obs::Span span(ctx.tracer, "query.shard_fanout", "query");
  span.AddArg("backend", std::string(BackendToString(req.backend)));
  span.AddArg("shards_scanned", ids.size());
  span.AddArg("shards_total", total);
  if (cluster) span.AddArg("nodes", topology_.nodes());

  const PartialPlan pp = MakePartialPlan(*req.spec);
  const size_t slots = pp.spec.aggregates.size();
  std::vector<ShardRun> runs(ids.size());

  // --- pre-fan-out, single-threaded: pick each shard's serving replica.
  // Lowest-index live replica wins (ReplicaLive's rule); each selection
  // attempt first draws one "node.kill" on the replica's node (cluster
  // only) and one "shard.kill" on the replica, so replica j is never
  // drawn until replicas 0..j-1 are dead. Selection runs before the pool
  // and walks shards in shard-major order, so the death schedule is a
  // pure function of (plan, workload) — bit-identical at any host thread
  // count.
  const auto dead = [&](const char* site, const std::string& component) {
    return !ctx.health->alive(component) ||
           ctx.health->DrawKill(site, component, now);
  };
  std::vector<size_t> serving;  // indices into ids/runs
  serving.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ShardRun& run = runs[i];
    int picked = -1;
    for (uint32_t j = 0; j < replicas; ++j) {
      const uint32_t node = ReplicaNode(topology_, *req.table, ids[i], j);
      if (ctx.health != nullptr &&
          ((cluster && dead("node.kill", net::Topology::NodeName(node))) ||
           dead("shard.kill",
                shard::ReplicaName(req.table_name, ids[i], j)))) {
        ++run.failovers;
        continue;
      }
      picked = static_cast<int>(j);
      run.node = node;
      break;
    }
    if (picked < 0) {
      run.serving = false;
      ++shards_unavailable_;
      UnavailableShard unavailable =
          NoLiveReplica(req.table_name, ids[i], replicas, cluster);
      if (ctx.recorder != nullptr) {
        ctx.recorder->Log("shard", unavailable.recorder_line, now);
      }
      if (!ctx.options.allow_partial) return std::move(unavailable.status);
      continue;
    }
    run.replica = picked;
    if (cluster && req.ship != nullptr && i < req.ship->size()) {
      run.ship = (*req.ship)[i];
    }
    serving.push_back(i);
  }

  // --- fan out: host pool pulls serving-shard tasks from a cursor. Any
  // worker's rig can run any shard (every task starts from a cold reset),
  // so a cluster fan-out may use more host workers than it has nodes.
  int host = host_threads_ > 0
                 ? host_threads_
                 : static_cast<int>(std::thread::hardware_concurrency());
  host = std::min(std::max(host, 1), static_cast<int>(serving.size()));
  std::atomic<size_t> next{0};
  auto worker = [&](int slot) {
    Rig& rig = RigForSlot(slot);
    for (;;) {
      const size_t pick = next.fetch_add(1);
      if (pick >= serving.size()) break;
      const size_t i = serving[pick];
      RunShardTask(req, pp.spec, ctx, ids[i], &rig, &runs[i]);
    }
  };
  if (host <= 1) {
    // Caller's thread: single-shard queries and --threads 1 runs see no
    // thread machinery at all (sanitizer- and debugger-friendly).
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(host));
    for (int t = 0; t < host; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  // --- post-join, single-threaded, shard-major from here on ---
  for (const size_t i : serving) {
    if (!runs[i].status.ok()) return runs[i].status;
  }

  // Records a shard's partial ships as: its matching rows (ship=rows),
  // or its partial-aggregate rows, 1 for a flat aggregate that matched
  // anything (ship=aggs).
  const auto ship_units = [&](const ShardRun& run) -> uint64_t {
    const engine::QueryResult& r = run.result;
    if (run.ship == net::ShipMode::kRows) return r.rows_matched;
    if (!req.spec->group_by.empty()) return r.groups.size();
    return slots > 0 && r.rows_matched > 0 ? 1 : 0;
  };
  const ShipPricer pricer(req.table->schema(), *req.spec, topology_.network(),
                          req.cost);

  // --- cycle model: each serving shard runs on one simulated clock —
  // single-host, the shard-major deal k % P onto P simulated workers; in
  // a cluster, its serving node. A shard costs its scan, the failover
  // surcharge (a dead replica or node is detected by missed heartbeat),
  // and in a cluster the pack cost of its priced transfer (single-host
  // partials cross a zero loopback). A clock's time is the sum of its
  // shards' cycles; shards completing past an armed deadline are
  // cancelled, on the simulated clock, so expiry is scheduling-invariant.
  const size_t width = std::max<size_t>(1, serving.size());
  const size_t sim_workers =
      ctx.options.max_threads > 0
          ? std::min(width, static_cast<size_t>(ctx.options.max_threads))
          : width;
  std::vector<uint64_t> clocks(cluster ? topology_.nodes() : sim_workers, 0);
  const uint64_t deadline = ctx.options.deadline_cycles;
  size_t cancelled_count = 0;
  for (size_t k = 0; k < serving.size(); ++k) {
    ShardRun& run = runs[serving[k]];
    run.cycles += static_cast<uint64_t>(static_cast<double>(run.failovers) *
                                        req.cost.shard_failover_cycles);
    shards_failed_over_ += run.failovers;
    if (cluster) {
      run.transfer = pricer.Ship(run.ship, ship_units(run));
      run.cycles += static_cast<uint64_t>(run.transfer.serialize_cycles);
    }
    uint64_t& clock = clocks[cluster ? run.node : k % sim_workers];
    clock += run.cycles;
    if (deadline > 0 && clock > deadline) {
      run.cancelled = true;
      ++cancelled_count;
    }
  }
  uint64_t parallel_cycles = 0;
  for (uint64_t c : clocks) {
    parallel_cycles = std::max(parallel_cycles, c);
  }
  shards_cancelled_ += cancelled_count;

  // --- circuit-breaker reports, shard order (cancelled shards report
  // nothing: they neither succeeded nor failed) ---
  if (ctx.health != nullptr) {
    for (const size_t i : serving) {
      const ShardRun& run = runs[i];
      if (run.cancelled) continue;
      const std::string name = shard::ReplicaName(
          req.table_name, ids[i], static_cast<uint32_t>(run.replica));
      if (run.degraded) {
        if (run.exhausted > 0) {
          ctx.health->ReportExhausted(name, run.cause, now);
        } else {
          ctx.health->ReportFailure(name, run.cause, now);
        }
      } else {
        ctx.health->ReportSuccess(name);
      }
    }
  }

  // --- meters + degradation + network bookkeeping (shard order,
  // completed only; the net.* side is cluster-only) ---
  shards_scanned_ += serving.size();
  shards_pruned_ += total - ids.size();
  uint64_t query_net_bytes = 0;
  uint64_t query_net_messages = 0;
  uint32_t query_ship_rows = 0;
  uint32_t query_ship_aggs = 0;
  std::map<uint32_t, uint64_t> query_node_bytes;
  std::string degraded_note;
  for (const size_t i : serving) {
    const ShardRun& run = runs[i];
    if (run.cancelled) continue;
    shard_cycles_.Observe(static_cast<double>(run.cycles));
    if (ctx.digests != nullptr) {
      // Shard-order observation in single-threaded post-join code: the
      // digest contents are independent of the host worker count.
      ctx.digests->Observe("shard.cycles", static_cast<double>(run.cycles));
      ctx.digests->Observe("shard." + std::to_string(ids[i]) + ".cycles",
                           static_cast<double>(run.cycles));
    }
    if (cluster) {
      const uint64_t bytes = run.transfer.payload_bytes;
      if (ctx.digests != nullptr) {
        ctx.digests->Observe("net.shard.bytes", static_cast<double>(bytes));
      }
      net_bytes_ += bytes;
      net_messages_ += run.transfer.messages;
      query_net_bytes += bytes;
      query_net_messages += run.transfer.messages;
      query_node_bytes[run.node] += bytes;
      if (run.node < node_bytes_.size()) node_bytes_[run.node] += bytes;
      if (run.ship == net::ShipMode::kRows) {
        ++shards_ship_rows_;
        ++query_ship_rows;
        net_rows_shipped_ += ship_units(run);
      } else {
        ++shards_ship_aggs_;
        ++query_ship_aggs;
        net_agg_values_shipped_ += ship_units(run) * slots;
      }
    }
    faults_injected_ += run.injected;
    if (run.degraded) {
      ++shards_degraded_;
      if (ctx.injector != nullptr) {
        ctx.injector->NoteFallback(
            "shard." + std::string(BackendToString(req.backend)));
      }
      if (ctx.recorder != nullptr) {
        ctx.recorder->Log(
            "shard",
            "shard " + std::to_string(ids[i]) + " degraded: " + run.cause,
            now);
      }
      if (degraded_note.empty()) {
        std::ostringstream os;
        os << "shard " << ids[i] << ": " << run.cause
           << "; shard re-run on ROW backend (" << (serving.size() - 1)
           << " other shard(s) unaffected)";
        degraded_note = os.str();
      }
    }
  }
  if (ctx.digests != nullptr) {
    // Node-ascending per-node traffic observations (map order).
    for (const auto& [node, bytes] : query_node_bytes) {
      ctx.digests->Observe("net." + net::Topology::NodeName(node) + ".bytes",
                           static_cast<double>(bytes));
    }
  }

  // --- profile ops, one per surviving shard (both exits share this) ---
  const auto fill_profile_ops = [&]() {
    obs::QueryProfile* prof = ctx.profile;
    prof->shards_total = total;
    prof->shards_scanned = static_cast<uint32_t>(serving.size());
    prof->shards_pruned = total - static_cast<uint32_t>(ids.size());
    prof->shards_unavailable =
        static_cast<uint32_t>(ids.size() - serving.size());
    prof->shards_cancelled = static_cast<uint32_t>(cancelled_count);
    prof->nodes = topology_.nodes();
    prof->net_bytes = query_net_bytes;
    prof->net_messages = query_net_messages;
    prof->shards_ship_rows = query_ship_rows;
    prof->shards_ship_aggs = query_ship_aggs;
    for (size_t i = 0; i < runs.size(); ++i) {
      const ShardRun& run = runs[i];
      obs::OpStats op;
      std::ostringstream name;
      name << "Shard[" << ids[i] << "] ";
      if (!run.serving) {
        name << "(dead, skipped)";
        op.name = name.str();
        op.rows_in = req.table->shard(ids[i]).num_rows();
        prof->ops.push_back(std::move(op));
        continue;
      }
      prof->shards_failed_over += run.failovers;
      name << BackendToString(req.backend);
      if (run.degraded) name << "->ROW";
      if (cluster) {
        name << " node=" << run.node
             << " ship=" << net::ShipModeToString(run.ship);
      }
      if (run.replica > 0) {
        name << " replica=" << run.replica << " (failover)";
      }
      if (run.cancelled) name << " (cancelled)";
      op.name = name.str();
      op.rows_in = run.shard_rows;
      op.rows_out = run.result.rows_matched;
      op.cpu_cycles = run.sample.cpu_cycles;
      op.dram_lines_demand = run.sample.dram_lines_demand;
      op.dram_lines_gather = run.sample.dram_lines_gather;
      op.fabric_reads = run.sample.fabric_reads;
      op.l1_misses = run.sample.l1_misses;
      op.l2_misses = run.sample.l2_misses;
      prof->ops.push_back(std::move(op));
    }
    if (!degraded_note.empty()) prof->fallback = degraded_note;
  };

  if (cancelled_count > 0) {
    // Deadline expiry: the merge never runs; the profile survives with
    // per-shard ops intact and the total clamped to the deadline.
    const std::string limit =
        "deadline of " + std::to_string(deadline) + " cycles";
    const std::string counts = std::to_string(cancelled_count) + " of " +
                               std::to_string(serving.size()) +
                               " shard(s) cancelled";
    if (ctx.recorder != nullptr) {
      ctx.recorder->Log("shard", limit + " exceeded: " + counts, now);
    }
    if (ctx.profile != nullptr) {
      fill_profile_ops();
      ctx.profile->total_cycles = static_cast<double>(deadline);
    }
    return Status::DeadlineExceeded("query exceeded " + limit + ": " + counts);
  }

  // --- merge, shard-major over the serving shards. The value merge is
  // the same everywhere (ship modes are timing aliases); the coordinator
  // clock is charged per shard, in shard order: the transfer's wire
  // occupancy plus the handoff, then the per-unit merge work. Single-host
  // that is one aggregate update per partial slot; in a cluster it is
  // ShipPricer::Ingest, the price the planner chose the ship mode by.
  engine::QueryResult merged;
  std::vector<double> flat(slots, 0);
  std::vector<bool> flat_any(slots, false);
  engine::GroupTable<double> groups(slots);
  double coordinator_cycles = 0;

  for (const size_t i : serving) {
    const ShardRun& run = runs[i];
    const engine::QueryResult& r = run.result;
    merged.rows_scanned += r.rows_scanned;
    merged.rows_matched += r.rows_matched;
    merged.projection_checksum += r.projection_checksum;
    if (r.rows_matched > 0 && req.spec->group_by.empty()) {
      for (size_t j = 0; j < slots; ++j) {
        CombineSlot(pp.slot_func[j], !flat_any[j], r.aggregates[j],
                    &flat[j]);
        flat_any[j] = true;
      }
    }
    for (const auto& [key, vals] : r.groups) {
      bool inserted = false;
      double* acc = groups.FindOrInsert(key, &inserted);
      for (size_t j = 0; j < slots; ++j) {
        if (inserted) {
          acc[j] = vals[j];
        } else {
          CombineSlot(pp.slot_func[j], false, vals[j], &acc[j]);
        }
      }
    }

    coordinator_cycles +=
        run.transfer.wire_cycles + req.cost.shard_merge_task_cycles;
    coordinator_cycles +=
        cluster ? pricer.Ingest(run.ship, static_cast<double>(ship_units(run)))
                : static_cast<double>(slots + r.groups.size() * slots) *
                      req.cost.agg_update_cycles;
  }

  if (!req.spec->aggregates.empty() && req.spec->group_by.empty()) {
    merged.aggregates = FinalizeSlots(*req.spec, pp, flat.data());
  }
  merged.groups.reserve(groups.size());
  for (const uint32_t g : groups.KeyOrder()) {
    merged.groups.emplace_back(groups.key(g),
                               FinalizeSlots(*req.spec, pp, groups.states(g)));
  }
  merged.partial = serving.size() < ids.size();
  merged.sim_cycles =
      parallel_cycles + static_cast<uint64_t>(coordinator_cycles);

  if (ctx.profile != nullptr) {
    fill_profile_ops();
    obs::QueryProfile* prof = ctx.profile;
    obs::OpStats merge_op;
    merge_op.name =
        cluster ? "NetMerge[nodes=" + std::to_string(topology_.nodes()) + "]"
                : "Merge[workers=" + std::to_string(sim_workers) + "]";
    merge_op.rows_in = merged.rows_matched;
    merge_op.rows_out =
        merged.groups.empty() ? merged.rows_matched : merged.groups.size();
    merge_op.cpu_cycles = coordinator_cycles;
    prof->ops.push_back(std::move(merge_op));
    prof->total_cycles = static_cast<double>(merged.sim_cycles);
  }

  span.AddArg("rows_matched", merged.rows_matched);
  if (cluster) {
    span.AddArg("net_bytes", query_net_bytes);
  } else {
    span.AddArg("sim_workers", sim_workers);
  }
  return merged;
}

void ShardScheduler::ExportTo(obs::Registry* registry) const {
  registry->counter("shard.queries")->Set(queries_);
  registry->counter("shard.scanned")->Set(shards_scanned_);
  registry->counter("shard.pruned")->Set(shards_pruned_);
  registry->counter("shard.degraded")->Set(shards_degraded_);
  registry->counter("shard.faults.injected")->Set(faults_injected_);
  registry->counter("shard.failed_over")->Set(shards_failed_over_);
  registry->counter("shard.unavailable")->Set(shards_unavailable_);
  registry->counter("shard.cancelled")->Set(shards_cancelled_);
  *registry->histogram("shard.cycles") = shard_cycles_;
  if (topology_.enabled()) {
    registry->counter("net.bytes")->Set(net_bytes_);
    registry->counter("net.messages")->Set(net_messages_);
    registry->counter("net.rows_shipped")->Set(net_rows_shipped_);
    registry->counter("net.agg_values_shipped")->Set(net_agg_values_shipped_);
    registry->counter("net.ship.rows")->Set(shards_ship_rows_);
    registry->counter("net.ship.aggs")->Set(shards_ship_aggs_);
    for (size_t k = 0; k < node_bytes_.size(); ++k) {
      registry
          ->counter("net." +
                    net::Topology::NodeName(static_cast<uint32_t>(k)) +
                    ".bytes")
          ->Set(node_bytes_[k]);
    }
  }
}

}  // namespace relfab::exec
