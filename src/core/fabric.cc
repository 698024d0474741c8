#include "core/fabric.h"

#include <sstream>
#include <utility>

namespace relfab {

Fabric::Fabric(sim::SimParams sim_params, engine::CostModel cost_model)
    : memory_(sim_params),
      rm_(&memory_),
      cost_model_(cost_model),
      parser_(&catalog_),
      planner_(&catalog_, sim_params, cost_model, &health_),
      executor_(&catalog_, &rm_, cost_model),
      scheduler_(sim_params) {
  tracer_.SetClock([this] { return memory_.ElapsedCycles(); });
  // Components hold the tracer permanently; tracer_.enabled() gates all
  // span work, so a disabled tracer costs one branch per span site.
  // (The executor takes its tracer per call through the ExecContext.)
  rm_.set_tracer(&tracer_);
  // $RELFAB_FAULTS arms chaos/fault injection for the whole stack. A
  // malformed spec is an operator error surfaced through
  // env_faults_status() — the fabric comes up unarmed and usable, and
  // shells/benches print the parse message instead of dying. Unset
  // leaves every component's injector pointer null (the zero-overhead
  // happy path).
  StatusOr<std::unique_ptr<faults::FaultInjector>> env_injector =
      faults::FaultInjector::FromEnv();
  if (!env_injector.ok()) {
    env_faults_status_ = env_injector.status();
  } else if (*env_injector != nullptr) {
    ArmFaults((*env_injector)->plan());
  }
}

void Fabric::ArmFaults(faults::FaultPlan plan) {
  // The health registry owns the plan's ".kill" rules (permanent
  // component death); arming resets all health state so a re-armed
  // session replays the same death schedule from scratch.
  health_.ArmKills(plan);
  injector_ =
      plan.armed() ? std::make_unique<faults::FaultInjector>(std::move(plan))
                   : nullptr;
  faults::FaultInjector* raw = injector_.get();
  memory_.set_fault_injector(raw);
  rm_.set_fault_injector(raw);
  // The executor and shard scheduler receive the injector per query
  // through the ExecContext; shard tasks derive private per-shard
  // injectors from its plan.
  for (auto& [name, mgr] : txn_managers_) mgr->set_fault_injector(raw);
}

StatusOr<layout::RowTable*> Fabric::CreateTable(const std::string& name,
                                                layout::Schema schema,
                                                uint64_t capacity) {
  if (tables_.count(name) > 0 || versioned_.count(name) > 0 ||
      sharded_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<layout::RowTable>(std::move(schema), &memory_,
                                                  capacity);
  layout::RowTable* raw = table.get();
  RELFAB_RETURN_IF_ERROR(catalog_.Register(name, {raw, nullptr}));
  tables_[name] = std::move(table);
  return raw;
}

StatusOr<layout::RowTable*> Fabric::AdoptTable(const std::string& name,
                                               layout::RowTable table) {
  if (table.memory() != &memory_) {
    return Status::InvalidArgument(
        "table was built against a different memory system");
  }
  if (tables_.count(name) > 0 || versioned_.count(name) > 0 ||
      sharded_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto owned = std::make_unique<layout::RowTable>(std::move(table));
  layout::RowTable* raw = owned.get();
  RELFAB_RETURN_IF_ERROR(catalog_.Register(name, {raw, nullptr}));
  tables_[name] = std::move(owned);
  return raw;
}

namespace {

/// Rebuilds a catalog with one entry replaced (Catalog has no in-place
/// update by design — registrations are otherwise immutable).
Status ReplaceCatalogEntry(query::Catalog* catalog, const std::string& name,
                           const query::TableEntry& replacement) {
  query::Catalog rebuilt;
  for (const std::string& existing : catalog->TableNames()) {
    auto entry = catalog->Lookup(existing);
    RELFAB_RETURN_IF_ERROR(rebuilt.Register(
        existing, existing == name ? replacement : *entry));
  }
  *catalog = std::move(rebuilt);
  return Status::Ok();
}

}  // namespace

Status Fabric::MaterializeColumnarCopy(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no plain table named '" + name + "'");
  }
  if (column_copies_.count(name) > 0) return Status::Ok();
  auto copy = std::make_unique<layout::ColumnTable>(*it->second, &memory_);
  RELFAB_ASSIGN_OR_RETURN(query::TableEntry entry, catalog_.Lookup(name));
  entry.columns = copy.get();
  RELFAB_RETURN_IF_ERROR(ReplaceCatalogEntry(&catalog_, name, entry));
  column_copies_[name] = std::move(copy);
  return Status::Ok();
}

Status Fabric::CreateIndex(const std::string& name,
                           const std::string& column_name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no plain table named '" + name + "'");
  }
  layout::RowTable* table = it->second.get();
  RELFAB_ASSIGN_OR_RETURN(uint32_t column,
                          table->schema().IndexOf(column_name));
  if (table->schema().type(column) != layout::ColumnType::kInt64) {
    return Status::InvalidArgument("index column must be int64");
  }
  if (indexes_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already has an index");
  }
  auto index = std::make_unique<index::BTreeIndex>(&memory_);
  for (uint64_t row = 0; row < table->num_rows(); ++row) {
    index->Insert(table->GetInt(row, column), row);
  }
  RELFAB_ASSIGN_OR_RETURN(query::TableEntry entry, catalog_.Lookup(name));
  entry.key_index = index.get();
  entry.key_index_column = column;
  RELFAB_RETURN_IF_ERROR(ReplaceCatalogEntry(&catalog_, name, entry));
  indexes_[name] = std::move(index);
  return Status::Ok();
}

Status Fabric::AnalyzeTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no plain table named '" + name + "'");
  }
  auto stats =
      std::make_unique<query::TableStats>(query::AnalyzeTable(*it->second));
  RELFAB_ASSIGN_OR_RETURN(query::TableEntry entry, catalog_.Lookup(name));
  entry.stats = stats.get();
  RELFAB_RETURN_IF_ERROR(ReplaceCatalogEntry(&catalog_, name, entry));
  stats_[name] = std::move(stats);
  return Status::Ok();
}

StatusOr<layout::RowTable*> Fabric::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<shard::ShardedTable*> Fabric::CreateShardedTable(
    const std::string& name, layout::Schema schema,
    const std::string& key_column_name, shard::ShardedTableOptions options) {
  if (tables_.count(name) > 0 || versioned_.count(name) > 0 ||
      sharded_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  RELFAB_ASSIGN_OR_RETURN(uint32_t key_column,
                          schema.IndexOf(key_column_name));
  RELFAB_ASSIGN_OR_RETURN(
      shard::ShardedTable table,
      shard::ShardedTable::Create(std::move(schema), key_column, &memory_,
                                  std::move(options)));
  auto owned = std::make_unique<shard::ShardedTable>(std::move(table));
  shard::ShardedTable* raw = owned.get();
  query::TableEntry entry;
  entry.sharded = raw;
  RELFAB_RETURN_IF_ERROR(catalog_.Register(name, entry));
  sharded_[name] = std::move(owned);
  return raw;
}

StatusOr<shard::ShardedTable*> Fabric::GetShardedTable(
    const std::string& name) {
  auto it = sharded_.find(name);
  if (it == sharded_.end()) {
    return Status::NotFound("no sharded table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<mvcc::VersionedTable*> Fabric::CreateVersionedTable(
    const std::string& name, const layout::Schema& user_schema,
    uint32_t key_column, uint64_t capacity) {
  if (tables_.count(name) > 0 || versioned_.count(name) > 0 ||
      sharded_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  RELFAB_ASSIGN_OR_RETURN(
      mvcc::VersionedTable table,
      mvcc::VersionedTable::Create(user_schema, key_column, &memory_,
                                   capacity));
  auto owned = std::make_unique<mvcc::VersionedTable>(std::move(table));
  mvcc::VersionedTable* raw = owned.get();
  RELFAB_RETURN_IF_ERROR(catalog_.Register(name, {&raw->rows(), nullptr}));
  versioned_[name] = std::move(owned);
  txn_managers_[name] = std::make_unique<mvcc::TransactionManager>(raw);
  txn_managers_[name]->set_tracer(&tracer_);
  txn_managers_[name]->set_fault_injector(injector_.get());
  return raw;
}

StatusOr<mvcc::VersionedTable*> Fabric::GetVersionedTable(
    const std::string& name) {
  auto it = versioned_.find(name);
  if (it == versioned_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<mvcc::TransactionManager*> Fabric::GetTransactionManager(
    const std::string& name) {
  auto it = txn_managers_.find(name);
  if (it == txn_managers_.end()) {
    return Status::NotFound("no versioned table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<relmem::EphemeralView> Fabric::ConfigureView(
    const std::string& name, relmem::Geometry geometry) {
  RELFAB_ASSIGN_OR_RETURN(query::TableEntry entry, catalog_.Lookup(name));
  if (entry.rows == nullptr) {
    return Status::InvalidArgument(
        "table '" + name +
        "' is sharded; use ConfigureShardRange for ephemeral access");
  }
  return rm_.Configure(*entry.rows, std::move(geometry));
}

StatusOr<std::vector<relmem::EphemeralView>> Fabric::ConfigureShardRange(
    const std::string& name, const relmem::Geometry& geometry, int64_t lo,
    int64_t hi) {
  RELFAB_ASSIGN_OR_RETURN(shard::ShardedTable * table, GetShardedTable(name));
  return table->ConfigureRange(&rm_, geometry, lo, hi);
}

StatusOr<Fabric::SqlResult> Fabric::ExecuteSqlInternal(
    std::string_view sql, const QueryOptions& options) {
  RELFAB_ASSIGN_OR_RETURN(query::ParsedQuery parsed, parser_.Parse(sql));
  RELFAB_ASSIGN_OR_RETURN(query::Plan plan,
                          planner_.MakePlan(parsed, &options));
  SqlResult out;
  exec::ExecContext ctx;
  ctx.tracer = &tracer_;
  ctx.injector = injector_.get();
  ctx.profile = options.analyze ? &out.profile : nullptr;
  ctx.scheduler = &scheduler_;
  ctx.health = &health_;
  if (telemetry_ != nullptr) {
    ctx.digests = &telemetry_->digests();
    ctx.recorder = &telemetry_->flight_recorder();
  }
  ctx.options = options;
  RELFAB_ASSIGN_OR_RETURN(out.result, executor_.Execute(plan, ctx));
  out.plan = std::move(plan);
  return out;
}

StatusOr<Fabric::SqlResult> Fabric::ExecuteSql(std::string_view sql,
                                               const QueryOptions& options) {
  if (telemetry_ == nullptr) return ExecuteSqlInternal(sql, options);

  // Snapshot the fault counters so the log record carries per-statement
  // deltas. Everything below is host-side bookkeeping on results the
  // simulation already produced — with telemetry enabled the simulated
  // cycle clocks advance exactly as they do with it disabled.
  const uint64_t injected_before =
      injector_ != nullptr ? injector_->total_injected() : 0;
  const uint64_t retries_before =
      injector_ != nullptr ? injector_->total_retries() : 0;
  const uint64_t fallbacks_before =
      injector_ != nullptr ? injector_->total_fallbacks() : 0;
  const uint64_t scanned_before = scheduler_.shards_scanned();
  const uint64_t failovers_before = scheduler_.shards_failed_over();
  const uint64_t net_bytes_before = scheduler_.net_bytes();
  const uint64_t ship_rows_before = scheduler_.shards_ship_rows();
  const uint64_t ship_aggs_before = scheduler_.shards_ship_aggs();

  StatusOr<SqlResult> run = ExecuteSqlInternal(sql, options);

  obs::QueryLogRecord record;
  record.sql = std::string(sql);
  record.status_code = std::string(StatusCodeToString(
      run.ok() ? StatusCode::kOk : run.status().code()));
  record.shards_failed_over =
      static_cast<uint32_t>(scheduler_.shards_failed_over() - failovers_before);
  record.net_bytes = scheduler_.net_bytes() - net_bytes_before;
  record.shards_ship_rows =
      static_cast<uint32_t>(scheduler_.shards_ship_rows() - ship_rows_before);
  record.shards_ship_aggs =
      static_cast<uint32_t>(scheduler_.shards_ship_aggs() - ship_aggs_before);
  if (run.ok()) {
    record.table = run->plan.table;
    record.backend = std::string(exec::BackendToString(run->plan.backend));
    record.cycles = run->result.sim_cycles;
    record.rows_scanned = run->result.rows_scanned;
    record.rows_matched = run->result.rows_matched;
    if (run->plan.shards.enabled) {
      // Scanned is what the scheduler scanned: under allow_partial a
      // planned shard with no live replica is skipped, not scanned.
      record.shards_total = run->plan.shards.shards_total;
      record.shards_scanned =
          static_cast<uint32_t>(scheduler_.shards_scanned() - scanned_before);
      record.shards_pruned =
          record.shards_total -
          static_cast<uint32_t>(run->plan.shards.shard_ids.size());
    }
  } else {
    record.status = "error";
    record.error = run.status().ToString();
  }
  if (injector_ != nullptr) {
    record.faults_injected = injector_->total_injected() - injected_before;
    record.fault_retries = injector_->total_retries() - retries_before;
    record.fault_fallbacks = injector_->total_fallbacks() - fallbacks_before;
  }
  if (record.fault_fallbacks > 0) {
    record.degraded = true;
    record.degradation = "fabric fault fallback (x" +
                         std::to_string(record.fault_fallbacks) + ")";
  }
  telemetry_->RecordStatement(std::move(record));
  telemetry_->Sample(CollectMetrics());
  return run;
}

StatusOr<query::Plan> Fabric::ExplainSql(std::string_view sql,
                                         const QueryOptions& options) {
  RELFAB_ASSIGN_OR_RETURN(query::ParsedQuery parsed, parser_.Parse(sql));
  return planner_.MakePlan(parsed, &options);
}

Status Fabric::ConfigureCluster(const net::ClusterConfig& config) {
  RELFAB_ASSIGN_OR_RETURN(net::Topology topology,
                          net::Topology::Make(config));
  scheduler_.ConfigureCluster(topology);
  planner_.set_topology(topology);
  return Status::Ok();
}

std::string Fabric::DescribeCluster() const {
  std::ostringstream os;
  const net::Topology& topology = scheduler_.topology();
  if (!topology.enabled()) {
    os << "no cluster configured (single-host mode); "
          "ConfigureCluster({.nodes = N}) enables the distributed fabric\n";
    return os.str();
  }
  const sim::NetworkParams& np = topology.network();
  os << "=== cluster: " << topology.nodes() << " node(s) ===\n"
     << "  network: link_latency=" << np.link_latency_cycles
     << " cycles, bandwidth=" << np.bytes_per_cycle
     << " B/cycle, mtu=" << np.mtu_bytes << " B, header="
     << np.message_header_bytes << " B\n";
  for (uint32_t k = 0; k < topology.nodes(); ++k) {
    const std::string name = net::Topology::NodeName(k);
    os << "  " << name << ": "
       << (health_.alive(name) ? "alive" : "DEAD") << "\n";
  }
  for (const auto& [tname, table] : sharded_) {
    os << "  table '" << tname << "': " << table->num_shards()
       << " shard(s) x " << table->num_replicas() << " replica(s), "
       << net::PlacementToString(table->placement()) << " placement\n";
    for (uint32_t s = 0; s < table->num_shards(); ++s) {
      os << "    shard" << s << ":";
      for (uint32_t j = 0; j < table->num_replicas(); ++j) {
        const uint32_t node = exec::ReplicaNode(topology, *table, s, j);
        os << " r" << j << "@" << net::Topology::NodeName(node);
        if (!exec::ReplicaLive(health_, topology, *table, tname, s, j)) {
          os << "(DEAD)";
        }
      }
      os << "\n";
    }
  }
  return os.str();
}

obs::Registry& Fabric::CollectMetrics() {
  memory_.ExportTo(&registry_);
  rm_.ExportTo(&registry_);
  if (!txn_managers_.empty()) {
    // Sum across versioned tables: the registry describes the platform,
    // not one table (per-table series can be added when needed).
    uint64_t commits = 0, aborts = 0, clock = 0;
    for (const auto& [name, mgr] : txn_managers_) {
      commits += mgr->commits();
      aborts += mgr->aborts();
      clock += mgr->current_ts();
    }
    registry_.counter("mvcc.commits")->Set(commits);
    registry_.counter("mvcc.aborts")->Set(aborts);
    registry_.counter("mvcc.clock")->Set(clock);
  }
  scheduler_.ExportTo(&registry_);
  health_.ExportTo(&registry_);
  registry_.gauge("faults.armed")->Set(injector_ != nullptr ? 1 : 0);
  if (injector_ != nullptr) injector_->ExportTo(&registry_);
  if (telemetry_ != nullptr) telemetry_->ExportTo(&registry_);
  return registry_;
}

void Fabric::EnableTracing(bool enabled) { tracer_.set_enabled(enabled); }

obs::WorkloadTelemetry& Fabric::EnableTelemetry(obs::TelemetryConfig config) {
  if (config.tracked.empty()) {
    // Cumulative (scheduler/injector-lifetime) series whose window
    // deltas read as rates; per-statement sim.* counters reset between
    // statements and are better read from the query log instead.
    config.tracked = {"shard.scanned",     "shard.pruned",
                      "shard.degraded",    "shard.failed_over",
                      "health.dead",       "faults.fallbacks.total"};
  }
  telemetry_ = std::make_unique<obs::WorkloadTelemetry>(std::move(config));
  tracer_.set_flight_recorder(&telemetry_->flight_recorder());
  // Health transitions land in the flight recorder as "health" markers.
  health_.set_recorder(&telemetry_->flight_recorder());
  return *telemetry_;
}

void Fabric::DisableTelemetry() {
  tracer_.set_flight_recorder(nullptr);
  health_.set_recorder(nullptr);
  telemetry_.reset();
}

}  // namespace relfab
