#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "exec/shard_scheduler.h"
#include "shard/sharded_table.h"

namespace relfab::query {

namespace {

/// Distinct cache lines the referenced fields span within one row
/// (row-relative; the per-row average over alignments is close to this
/// for rows that divide or are divided by the line size).
uint32_t LinesTouchedPerRow(const layout::Schema& schema,
                            const std::vector<uint32_t>& columns) {
  std::set<uint32_t> lines;
  for (uint32_t c : columns) {
    const uint32_t first = schema.offset(c) / 64;
    const uint32_t last = (schema.offset(c) + schema.width(c) - 1) / 64;
    for (uint32_t l = first; l <= last; ++l) lines.insert(l);
  }
  return static_cast<uint32_t>(lines.size());
}

uint32_t TotalWidth(const layout::Schema& schema,
                    const std::vector<uint32_t>& columns) {
  uint32_t w = 0;
  for (uint32_t c : columns) w += schema.width(c);
  return w;
}

int64_t ClampToInt64(double d) {
  if (d >= 9223372036854775807.0) {
    return std::numeric_limits<int64_t>::max();
  }
  if (d <= -9223372036854775808.0) {
    return std::numeric_limits<int64_t>::min();
  }
  return static_cast<int64_t>(d);
}

/// Integer key range implied by the WHERE conjuncts on the shard key.
/// Conservative: only tightens a bound when every int64 outside it is
/// provably excluded by a predicate (engines compare in the double
/// domain, hence the floor/ceil dance). An empty range means no row can
/// match and every shard prunes.
struct KeyRange {
  int64_t lo = std::numeric_limits<int64_t>::min();
  int64_t hi = std::numeric_limits<int64_t>::max();
  bool empty = false;

  void TightenLo(int64_t v) { lo = std::max(lo, v); }
  void TightenHi(int64_t v) { hi = std::min(hi, v); }
};

/// System-R style selectivity of the non-shard-key conjuncts (the key
/// range's effect is priced separately via shard-bound overlap).
double NonKeySelectivity(const engine::QuerySpec& spec, uint32_t key_column) {
  double sel = 1.0;
  for (const engine::Predicate& p : spec.predicates) {
    if (p.column == key_column) continue;
    switch (p.op) {
      case relmem::CompareOp::kEq:
        sel *= 0.1;
        break;
      case relmem::CompareOp::kNe:
        sel *= 0.9;
        break;
      default:
        sel *= 1.0 / 3.0;
        break;
    }
  }
  return sel;
}

/// Fraction of shard `s`'s key span that overlaps the query's pruned key
/// range. 1.0 when the shard's span is unbounded (edge shards) — no
/// density information, so assume every row qualifies.
double ShardOverlapFraction(const shard::ShardedTable& table, uint32_t s,
                            int64_t key_lo, int64_t key_hi) {
  int64_t lo = 0;
  int64_t hi = 0;
  table.ShardBounds(s, &lo, &hi);
  if (lo == std::numeric_limits<int64_t>::min() ||
      hi == std::numeric_limits<int64_t>::max()) {
    return 1.0;
  }
  const double span = static_cast<double>(hi) - static_cast<double>(lo) + 1.0;
  const double ovl_lo = std::max(static_cast<double>(lo),
                                 static_cast<double>(key_lo));
  const double ovl_hi = std::min(static_cast<double>(hi),
                                 static_cast<double>(key_hi));
  if (ovl_hi < ovl_lo) return 0.0;
  return std::min(1.0, (ovl_hi - ovl_lo + 1.0) / span);
}

KeyRange ExtractKeyRange(const engine::QuerySpec& spec,
                         uint32_t key_column) {
  KeyRange r;
  for (const engine::Predicate& p : spec.predicates) {
    if (p.column != key_column) continue;
    const double x = p.double_operand;
    switch (p.op) {
      case relmem::CompareOp::kGe:  // v >= x  =>  v >= ceil(x)
        r.TightenLo(ClampToInt64(std::ceil(x)));
        break;
      case relmem::CompareOp::kGt:  // v > x  =>  v >= floor(x) + 1
        r.TightenLo(ClampToInt64(std::floor(x) + 1.0));
        break;
      case relmem::CompareOp::kLe:  // v <= x  =>  v <= floor(x)
        r.TightenHi(ClampToInt64(std::floor(x)));
        break;
      case relmem::CompareOp::kLt:  // v < x  =>  v <= ceil(x) - 1
        r.TightenHi(ClampToInt64(std::ceil(x) - 1.0));
        break;
      case relmem::CompareOp::kEq:
        if (x == std::floor(x) && std::abs(x) < 9.2e18) {
          r.TightenLo(static_cast<int64_t>(x));
          r.TightenHi(static_cast<int64_t>(x));
        } else {
          r.empty = true;  // int64 key can never equal a fractional value
        }
        break;
      case relmem::CompareOp::kNe:
        break;  // no range information
    }
  }
  if (r.lo > r.hi) r.empty = true;
  return r;
}

}  // namespace

double Planner::EstimateRow(const layout::Schema& schema, double n,
                            const engine::QuerySpec& spec) const {
  const std::vector<uint32_t> refs = spec.ReferencedColumns(schema);
  const double lines = LinesTouchedPerRow(schema, refs);
  // A row scan is one ascending stream: misses are prefetch-covered.
  const double mem = lines * sim_.prefetch_covered_cycles;
  const double hops = spec.predicates.empty() ? 1.0 : 2.0;
  double cpu = hops * cost_.volcano_next_cycles +
               static_cast<double>(refs.size()) *
                   (cost_.volcano_field_cycles + sim_.l1_hit_cycles) +
               static_cast<double>(spec.predicates.size()) *
                   cost_.compare_cycles +
               static_cast<double>(spec.AggOpCount()) * cost_.arith_cycles +
               static_cast<double>(spec.aggregates.size()) *
                   cost_.agg_update_cycles;
  if (!spec.group_by.empty()) cpu += cost_.group_hash_cycles;
  return n * (mem + cpu);
}

double Planner::EstimateColumn(const layout::Schema& schema, double n,
                               const engine::QuerySpec& spec) const {
  const std::vector<uint32_t> refs = spec.ReferencedColumns(schema);
  const double streams = static_cast<double>(refs.size());
  // Per-line cost depends on whether the concurrent column cursors fit
  // in the prefetcher's stream table.
  double line_cost = sim_.prefetch_covered_cycles;
  if (streams > sim_.prefetch_streams) {
    const double coverage = sim_.prefetch_streams / streams;
    line_cost = coverage * sim_.prefetch_covered_cycles +
                (1 - coverage) * (sim_.dram_row_hit_cycles / sim_.cpu_mlp);
  }
  const double lines_per_row = TotalWidth(schema, refs) / 64.0;
  const double mem = lines_per_row * line_cost;
  double cpu = streams * cost_.vector_value_cycles +
               static_cast<double>(spec.predicates.size()) *
                   cost_.compare_cycles +
               static_cast<double>(spec.AggOpCount()) * cost_.arith_cycles +
               static_cast<double>(spec.aggregates.size()) *
                   cost_.agg_update_cycles +
               cost_.batch_overhead_cycles / cost_.batch_rows;
  const size_t out_fields =
      refs.size() - spec.predicates.size();  // rough reconstruction width
  if (out_fields > 1) {
    cpu += cost_.reconstruct_field_cycles * static_cast<double>(out_fields);
  }
  if (!spec.group_by.empty()) cpu += cost_.group_hash_cycles;
  return n * (mem + cpu);
}

double Planner::EstimateRm(const layout::Schema& schema, double n,
                           const engine::QuerySpec& spec) const {
  const std::vector<uint32_t> refs = spec.ReferencedColumns(schema);
  const double out_bytes = TotalWidth(schema, refs);
  const double gather_lines = LinesTouchedPerRow(schema, refs);
  // Gather streams inside open DRAM rows; one row opening per
  // (row_bytes/64) lines amortizes across the bank parallelism.
  const double lines_per_dram_row = sim_.dram_row_bytes / 64.0;
  const double gather = gather_lines *
                        (sim_.line_transfer_cycles +
                         sim_.dram_row_miss_cycles /
                             (lines_per_dram_row *
                              sim_.fabric_gather_parallelism));
  const double parse = sim_.fabric_clock_ratio / sim_.fabric_rows_per_cycle;
  const double pack = out_bytes / 64.0 * sim_.fabric_pack_cycles_per_line *
                      sim_.fabric_clock_ratio;
  const double produce = std::max({gather, parse, pack});
  double consume = out_bytes / 64.0 * sim_.fabric_read_cycles +
                   static_cast<double>(refs.size()) * cost_.rm_value_cycles +
                   static_cast<double>(spec.predicates.size()) *
                       cost_.compare_cycles +
                   static_cast<double>(spec.AggOpCount()) *
                       cost_.arith_cycles +
                   static_cast<double>(spec.aggregates.size()) *
                       cost_.agg_update_cycles;
  if (!spec.group_by.empty()) consume += cost_.group_hash_cycles;
  return n * std::max(produce, consume) + sim_.fabric_configure_cycles;
}

double Planner::EstimateIndex(const TableEntry& entry,
                              const engine::QuerySpec& spec) const {
  if (entry.key_index == nullptr) {
    return std::numeric_limits<double>::infinity();
  }
  // Applicable only to point queries: an equality conjunct on the
  // indexed column.
  bool has_point = false;
  for (const engine::Predicate& p : spec.predicates) {
    if (p.column == entry.key_index_column &&
        p.op == relmem::CompareOp::kEq) {
      has_point = true;
      break;
    }
  }
  if (!has_point) return std::numeric_limits<double>::infinity();
  // Root-to-leaf descent of cold nodes, then a handful of row fetches.
  // Without cardinality statistics, assume the key is near-unique.
  const double descent = entry.key_index->height() *
                         (sim_.dram_row_hit_cycles / sim_.cpu_mlp +
                          4 * cost_.compare_cycles);
  const std::vector<uint32_t> refs =
      spec.ReferencedColumns(entry.rows->schema());
  const double fetch = sim_.dram_row_hit_cycles / sim_.cpu_mlp +
                       static_cast<double>(refs.size()) *
                           (cost_.volcano_field_cycles + sim_.l1_hit_cycles);
  return descent + 4 * fetch;
}

double Planner::EstimateHybrid(const TableEntry& entry,
                               const engine::QuerySpec& spec,
                               double selectivity) const {
  if (spec.predicates.empty() || entry.stats == nullptr) {
    return std::numeric_limits<double>::infinity();
  }
  const layout::Schema& schema = entry.rows->schema();
  const double n = static_cast<double>(entry.rows->num_rows());
  // Phase 1: RM stream of the predicate columns only.
  std::vector<uint32_t> pred_cols;
  for (const engine::Predicate& p : spec.predicates) {
    pred_cols.push_back(p.column);
  }
  std::sort(pred_cols.begin(), pred_cols.end());
  pred_cols.erase(std::unique(pred_cols.begin(), pred_cols.end()),
                  pred_cols.end());
  const double pred_bytes = TotalWidth(schema, pred_cols);
  const double parse = sim_.fabric_clock_ratio / sim_.fabric_rows_per_cycle;
  const double pack = pred_bytes / 64.0 * sim_.fabric_pack_cycles_per_line *
                      sim_.fabric_clock_ratio;
  const double phase1_produce = std::max(parse, pack);
  const double phase1_consume =
      pred_bytes / 64.0 * sim_.fabric_read_cycles +
      static_cast<double>(spec.predicates.size()) *
          (cost_.rm_value_cycles + cost_.compare_cycles);
  // Phase 2: per qualifying row, a near-random base-row fetch plus the
  // volcano-style field work.
  const std::vector<uint32_t> refs = spec.ReferencedColumns(schema);
  const double per_match =
      sim_.dram_row_hit_cycles / sim_.cpu_mlp +
      static_cast<double>(refs.size()) *
          (cost_.volcano_field_cycles + sim_.l1_hit_cycles) +
      static_cast<double>(spec.AggOpCount()) * cost_.arith_cycles +
      static_cast<double>(spec.aggregates.size()) * cost_.agg_update_cycles;
  return n * (std::max(phase1_produce, phase1_consume) +
              selectivity * per_match) +
         sim_.fabric_configure_cycles;
}

void Planner::ChooseShipModes(const shard::ShardedTable& table,
                              const engine::QuerySpec& spec,
                              ShardFanout* out) const {
  out->ship.assign(out->shard_ids.size(), net::ShipMode::kAggs);
  if (spec.aggregates.empty()) {
    // Projection-only queries have no partial-aggregate form: the rows
    // ARE the result, so every shard ships them.
    out->ship.assign(out->shard_ids.size(), net::ShipMode::kRows);
    return;
  }

  const bool keyed_groups =
      std::find(spec.group_by.begin(), spec.group_by.end(),
                table.key_column()) != spec.group_by.end();
  const double sel = NonKeySelectivity(spec, table.key_column());
  // Each side costs what the scheduler will charge for it; the transfer
  // is priced on the rounded-up estimate.
  const exec::ShipPricer pricer(table.schema(), spec, topology_.network(),
                                cost_);
  const auto price = [&](net::ShipMode mode, double est) {
    const net::Transfer t =
        pricer.Ship(mode, static_cast<uint64_t>(est) + (est > 0 ? 1 : 0));
    return t.serialize_cycles + t.wire_cycles + pricer.Ingest(mode, est);
  };

  for (size_t i = 0; i < out->shard_ids.size(); ++i) {
    const uint32_t s = out->shard_ids[i];
    const double frac =
        ShardOverlapFraction(table, s, out->key_lo, out->key_hi);
    const double est_rows =
        static_cast<double>(table.shard(s).num_rows()) * frac * sel;
    // Grouping by the shard key makes nearly every row its own group
    // (range-sharded integer keys); other group columns are assumed
    // low-cardinality, capped at 64 distinct values per shard.
    double est_groups;
    if (spec.group_by.empty()) {
      est_groups = 1.0;
    } else if (keyed_groups) {
      est_groups = est_rows;
    } else {
      est_groups = std::min(est_rows, 64.0);
    }
    out->ship[i] = price(net::ShipMode::kRows, est_rows) <
                           price(net::ShipMode::kAggs, est_groups)
                       ? net::ShipMode::kRows
                       : net::ShipMode::kAggs;
  }
}

StatusOr<Plan> Planner::MakeShardedPlan(
    const ParsedQuery& parsed, const TableEntry& entry,
    const exec::QueryOptions* options) const {
  const shard::ShardedTable& table = *entry.sharded;
  RELFAB_RETURN_IF_ERROR(parsed.spec.Validate(table.schema()));

  Plan plan;
  plan.table = parsed.table;
  plan.spec = parsed.spec;
  plan.shards.enabled = true;
  plan.shards.shards_total = table.num_shards();

  const KeyRange range = ExtractKeyRange(parsed.spec, table.key_column());
  plan.shards.key_lo = range.lo;
  plan.shards.key_hi = range.hi;
  if (!range.empty) {
    plan.shards.shard_ids = table.ShardsForRange(range.lo, range.hi);
  }

  const bool distributed = topology_.enabled();
  if (distributed) {
    plan.shards.distributed = true;
    plan.shards.nodes = topology_.nodes();
    ChooseShipModes(table, parsed.spec, &plan.shards);
  }
  if (options != nullptr && options->forced_ship.has_value()) {
    if (!distributed) {
      return Status::InvalidArgument(
          "ship=" + std::string(net::ShipModeToString(*options->forced_ship)) +
          " forced but no cluster is configured; call ConfigureCluster "
          "first");
    }
    plan.shards.ship.assign(plan.shards.shard_ids.size(),
                            *options->forced_ship);
  }

  // Surviving work: cost the two per-shard scan paths over the rows the
  // fan-out will actually touch (summed — the parallel speedup is an
  // execution-time property, identical for both paths, so it cancels
  // out of the choice).
  double n = 0;
  for (uint32_t s : plan.shards.shard_ids) {
    n += static_cast<double>(table.shard(s).num_rows());
  }
  const double extra_configures =
      plan.shards.shard_ids.empty()
          ? 0
          : static_cast<double>(plan.shards.shard_ids.size() - 1) *
                sim_.fabric_configure_cycles;
  plan.est_cost_row = EstimateRow(table.schema(), n, parsed.spec);
  plan.est_cost_rm =
      EstimateRm(table.schema(), n, parsed.spec) + extra_configures;
  plan.est_cost_column = std::numeric_limits<double>::infinity();
  plan.est_cost_index = std::numeric_limits<double>::infinity();
  plan.est_cost_hybrid = std::numeric_limits<double>::infinity();

  // Health-aware planning: a dead RM transformer prices the fabric path
  // out up front, so the plan is a Volcano fan-out rather than a doomed
  // RM dispatch; and a surviving shard whose replicas are all dead fails
  // the plan with kUnavailable before any work starts (unless the
  // caller asked for a partial answer — the scheduler then skips it).
  const bool rm_dead = health_ != nullptr && !health_->alive("rm");
  if (rm_dead) {
    plan.est_cost_rm = std::numeric_limits<double>::infinity();
  }
  if (health_ != nullptr && (options == nullptr || !options->allow_partial)) {
    for (uint32_t s : plan.shards.shard_ids) {
      bool any_live = false;
      for (uint32_t j = 0; j < table.num_replicas() && !any_live; ++j) {
        any_live =
            exec::ReplicaLive(*health_, topology_, table, parsed.table, s, j);
      }
      if (!any_live) {
        return exec::NoLiveReplica(parsed.table, s, table.num_replicas(),
                                   distributed)
            .status;
      }
    }
  }

  plan.backend = plan.est_cost_rm < plan.est_cost_row
                     ? Backend::kRelationalMemory
                     : Backend::kRow;
  if (options != nullptr && options->forced_backend.has_value()) {
    const Backend forced = *options->forced_backend;
    if (forced != Backend::kRow && forced != Backend::kRelationalMemory) {
      return Status::InvalidArgument(
          "sharded table '" + parsed.table + "' supports ROW and RM, not " +
          std::string(BackendToString(forced)));
    }
    if (forced == Backend::kRelationalMemory && rm_dead) {
      return Status::Unavailable("forced RM but the rm transformer is dead");
    }
    plan.backend = forced;
  }

  std::ostringstream os;
  os << "table=" << plan.table << " backend=SHARD("
     << BackendToString(plan.backend) << ") shards="
     << plan.shards.shard_ids.size() << "/" << plan.shards.shards_total
     << " pruned="
     << plan.shards.shards_total - plan.shards.shard_ids.size()
     << " est{ROW=" << plan.est_cost_row << ", RM=" << plan.est_cost_rm
     << "}";
  if (distributed) {
    size_t ship_rows = 0;
    for (net::ShipMode m : plan.shards.ship) {
      if (m == net::ShipMode::kRows) ++ship_rows;
    }
    os << " nodes=" << plan.shards.nodes << " ship={rows:" << ship_rows
       << ",aggs:" << plan.shards.ship.size() - ship_rows << "}";
    if (options != nullptr && options->forced_ship.has_value()) {
      os << " (ship forced)";
    }
  }
  if (rm_dead) os << " (rm dead: fabric path unavailable)";
  plan.explanation = os.str();
  return plan;
}

StatusOr<Plan> Planner::MakePlan(const ParsedQuery& parsed,
                                 const exec::QueryOptions* options) const {
  RELFAB_ASSIGN_OR_RETURN(TableEntry entry, catalog_->Lookup(parsed.table));
  if (entry.sharded != nullptr) {
    return MakeShardedPlan(parsed, entry, options);
  }
  if (options != nullptr && options->forced_ship.has_value()) {
    return Status::InvalidArgument(
        "ship=" + std::string(net::ShipModeToString(*options->forced_ship)) +
        " forced but table '" + parsed.table +
        "' is not sharded; ship modes apply to distributed shard fan-outs");
  }
  RELFAB_RETURN_IF_ERROR(parsed.spec.Validate(entry.rows->schema()));

  Plan plan;
  plan.table = parsed.table;
  plan.spec = parsed.spec;
  plan.est_selectivity =
      entry.stats != nullptr
          ? entry.stats->EstimateSelectivity(parsed.spec.predicates)
          : 1.0;
  const layout::Schema& schema = entry.rows->schema();
  const double n = static_cast<double>(entry.rows->num_rows());
  plan.est_cost_row = EstimateRow(schema, n, parsed.spec);
  plan.est_cost_column = entry.columns != nullptr
                             ? EstimateColumn(schema, n, parsed.spec)
                             : std::numeric_limits<double>::infinity();
  plan.est_cost_rm = EstimateRm(schema, n, parsed.spec);
  plan.est_cost_index = EstimateIndex(entry, parsed.spec);
  plan.est_cost_hybrid =
      EstimateHybrid(entry, parsed.spec, plan.est_selectivity);

  // A dead RM transformer takes both fabric-dependent paths out of the
  // running: the plan degrades to a host path up front.
  const bool rm_dead = health_ != nullptr && !health_->alive("rm");
  if (rm_dead) {
    plan.est_cost_rm = std::numeric_limits<double>::infinity();
    plan.est_cost_hybrid = std::numeric_limits<double>::infinity();
  }

  plan.backend = Backend::kRow;
  double best = plan.est_cost_row;
  if (plan.est_cost_column < best) {
    best = plan.est_cost_column;
    plan.backend = Backend::kColumn;
  }
  if (plan.est_cost_rm < best) {
    best = plan.est_cost_rm;
    plan.backend = Backend::kRelationalMemory;
  }
  if (plan.est_cost_hybrid < best) {
    best = plan.est_cost_hybrid;
    plan.backend = Backend::kHybrid;
  }
  if (plan.est_cost_index < best) {
    best = plan.est_cost_index;
    plan.backend = Backend::kIndex;
  }

  if (options != nullptr && options->forced_backend.has_value()) {
    const Backend forced = *options->forced_backend;
    if (rm_dead && (forced == Backend::kRelationalMemory ||
                    forced == Backend::kHybrid)) {
      return Status::Unavailable("forced " +
                                 std::string(BackendToString(forced)) +
                                 " but the rm transformer is dead");
    }
    switch (forced) {
      case Backend::kColumn:
        if (entry.columns == nullptr) {
          return Status::InvalidArgument(
              "forced COL but table '" + parsed.table +
              "' has no materialized columnar copy");
        }
        break;
      case Backend::kIndex:
        if (std::isinf(plan.est_cost_index)) {
          return Status::InvalidArgument(
              "forced INDEX but table '" + parsed.table +
              "' has no applicable index for this query");
        }
        break;
      case Backend::kHybrid:
        if (std::isinf(plan.est_cost_hybrid)) {
          return Status::InvalidArgument(
              "forced HYBRID but table '" + parsed.table +
              "' lacks predicates or ANALYZE statistics");
        }
        break;
      case Backend::kRow:
      case Backend::kRelationalMemory:
        break;  // always feasible (RM death checked above)
    }
    plan.backend = forced;
  }

  std::ostringstream os;
  os << "table=" << plan.table << " backend=" << BackendToString(plan.backend)
     << " est{ROW=" << plan.est_cost_row;
  if (entry.columns != nullptr) {
    os << ", COL=" << plan.est_cost_column;
  } else {
    os << ", COL=unavailable (no materialized copy)";
  }
  if (rm_dead) {
    os << ", RM=unavailable (rm dead)";
  } else {
    os << ", RM=" << plan.est_cost_rm;
  }
  if (entry.key_index != nullptr &&
      !std::isinf(plan.est_cost_index)) {
    os << ", INDEX=" << plan.est_cost_index;
  }
  if (!std::isinf(plan.est_cost_hybrid)) {
    os << ", HYBRID=" << plan.est_cost_hybrid << " (sel="
       << plan.est_selectivity << ")";
  }
  os << "}";
  if (options != nullptr && options->forced_backend.has_value()) {
    os << " (backend forced)";
  }
  plan.explanation = os.str();
  return plan;
}

}  // namespace relfab::query
