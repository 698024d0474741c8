// tpch_sql: TPC-H Q1, Q6 and a GROUP BY over generated lineitem, sent as
// SQL text through Fabric::ExecuteSql with a columnar copy and ANALYZE
// statistics in place. Each statement runs under the planner's own
// choice and forced ROW / COL / RM / HYBRID, so one round is 15 ops.
// Single-threaded. lineitem is 65536 rows x 106 B = 6.6 MiB, 6.6x the
// simulated 1 MiB L2. The engines do expression evaluation, grouping
// and the hybrid plan here, not projection as in fig5_scan.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric.h"
#include "layout/row_table.h"
#include "perfbench/harness.h"
#include "tpch/dbgen.h"

namespace relfab::perfbench {
namespace {

constexpr uint64_t kRows = 1ull << 16;

using exec::Backend;
using tpch::LineitemCols;

enum Statement : uint8_t { kQ1, kQ6, kGroupBy, kNumStatements };

struct Op {
  Statement statement;
  std::optional<Backend> forced;  // nullopt: the planner chooses
};

// Date literals of Q1 and Q6 as lineitem day numbers.
const int32_t kQ1ShipCutoff = tpch::DayNumber(1998, 12, 1) - 90;
const int32_t kQ6From = tpch::DayNumber(1994, 1, 1);
const int32_t kQ6To = tpch::DayNumber(1995, 1, 1);

std::string StatementSql(Statement s) {
  switch (s) {
    case kQ1:
      return "SELECT l_returnflag, l_linestatus, SUM(l_quantity), "
             "SUM(l_extendedprice), "
             "SUM(l_extendedprice * (1 - l_discount * 0.01)), "
             "SUM(l_extendedprice * (1 - l_discount * 0.01) * "
             "(1 + l_tax * 0.01)), "
             "AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), "
             "COUNT(*) FROM lineitem WHERE l_shipdate <= " +
             std::to_string(kQ1ShipCutoff) +
             " GROUP BY l_returnflag, l_linestatus";
    case kQ6:
      return "SELECT SUM(l_extendedprice * l_discount * 0.01) FROM lineitem "
             "WHERE l_shipdate >= " +
             std::to_string(kQ6From) + " AND l_shipdate < " +
             std::to_string(kQ6To) +
             " AND l_discount >= 5 AND l_discount <= 7 AND l_quantity < 24";
    case kGroupBy:
    case kNumStatements:
      break;
  }
  return "SELECT l_linenumber, COUNT(*), SUM(l_quantity), "
         "AVG(l_extendedprice), MAX(l_discount) FROM lineitem "
         "WHERE l_quantity < 30 GROUP BY l_linenumber";
}

class TpchSql final : public Workload {
 public:
  explicit TpchSql(uint64_t seed) : seed_(seed) {
    const std::optional<Backend> modes[] = {
        std::nullopt, Backend::kRow, Backend::kColumn,
        Backend::kRelationalMemory, Backend::kHybrid};
    for (uint8_t s = 0; s < kNumStatements; ++s) {
      sql_[s] = StatementSql(static_cast<Statement>(s));
      for (const std::optional<Backend>& mode : modes) {
        ops_.push_back({static_cast<Statement>(s), mode});
      }
    }
    Shuffle(&ops_, seed ^ 0x7c4ull);
  }

  void Build(SpanRecorder* spans) override {
    fabric_ = std::make_unique<Fabric>();
    RequireUnarmed(*fabric_);
    std::optional<layout::RowTable> lineitem;
    {
      SpanRecorder::Scope span(spans, "tpch.generate");
      lineitem.emplace(
          tpch::GenerateLineitem(kRows, seed_, &fabric_->memory()));
    }
    Status status = Status::Ok();
    {
      SpanRecorder::Scope span(spans, "layout.load");
      status = fabric_->AdoptTable("lineitem", std::move(*lineitem)).status();
    }
    if (status.ok()) {
      SpanRecorder::Scope span(spans, "layout.columnar_copy");
      status = fabric_->MaterializeColumnarCopy("lineitem");
    }
    if (status.ok()) {
      SpanRecorder::Scope span(spans, "query.analyze");
      status = fabric_->AnalyzeTable("lineitem");
    }
    if (!status.ok()) {
      std::fprintf(stderr, "tpch_sql set-up failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  void ComputeOracle() override {
    const layout::RowTable& t = *fabric_->GetTable("lineitem").value();
    struct Acc {
      uint64_t count = 0;
      double s[6] = {0, 0, 0, 0, 0, 0};
      int64_t max = 0;
    };
    std::map<std::vector<int64_t>, Acc> q1, gb;
    double revenue = 0;
    for (uint64_t r = 0; r < t.num_rows(); ++r) {
      const int64_t qty = t.GetInt(r, LineitemCols::kQuantity);
      const int64_t price = t.GetInt(r, LineitemCols::kExtendedPrice);
      const int64_t disc = t.GetInt(r, LineitemCols::kDiscount);
      const int64_t tax = t.GetInt(r, LineitemCols::kTax);
      const int64_t ship = t.GetInt(r, LineitemCols::kShipDate);
      const double p = static_cast<double>(price);
      const double d = static_cast<double>(disc);
      if (ship <= kQ1ShipCutoff) {
        const std::vector<int64_t> key = {
            static_cast<uint8_t>(t.GetChar(r, LineitemCols::kReturnFlag)[0]),
            static_cast<uint8_t>(t.GetChar(r, LineitemCols::kLineStatus)[0])};
        Acc& a = q1[key];
        const double disc_price = p * (1 - d * 0.01);
        a.s[0] += static_cast<double>(qty);
        a.s[1] += p;
        a.s[2] += disc_price;
        a.s[3] += disc_price * (1 + static_cast<double>(tax) * 0.01);
        a.s[4] += d;
        ++a.count;
      }
      if (ship >= kQ6From && ship < kQ6To && disc >= 5 && disc <= 7 &&
          qty < 24) {
        revenue += p * d * 0.01;
        ++matched_[kQ6];
      }
      if (qty < 30) {
        Acc& a = gb[{t.GetInt(r, LineitemCols::kLineNumber)}];
        a.s[0] += static_cast<double>(qty);
        a.s[1] += p;
        if (a.count == 0 || disc > a.max) a.max = disc;
        ++a.count;
      }
    }
    answers_[kQ6].aggregates = {revenue};
    Answer& a1 = answers_[kQ1];
    for (const auto& [key, acc] : q1) {
      const double n = static_cast<double>(acc.count);
      matched_[kQ1] += acc.count;
      a1.groups.push_back({key,
                           {acc.s[0], acc.s[1], acc.s[2], acc.s[3],
                            acc.s[0] / n, acc.s[1] / n, acc.s[4] / n, n}});
    }
    Answer& ag = answers_[kGroupBy];
    for (const auto& [key, acc] : gb) {
      const double n = static_cast<double>(acc.count);
      matched_[kGroupBy] += acc.count;
      ag.groups.push_back(
          {key, {n, acc.s[0], acc.s[1] / n, static_cast<double>(acc.max)}});
    }
  }

  size_t RoundSize() const override { return ops_.size(); }
  bool InWarmup(size_t i) const override { return ops_[i].statement == kQ6; }

  void Execute(size_t i, SpanRecorder* spans, uint64_t op) override {
    const Op& o = ops_[i];
    {
      SpanRecorder::Scope span(spans, "sim.reset", op);
      fabric_->memory().ResetState();
    }
    SpanRecorder::Scope span(spans, "core.execute_sql", op);
    result_ = fabric_->ExecuteSql(
        sql_[o.statement], Fabric::QueryOptions{.forced_backend = o.forced});
  }

  OpCheck Check(size_t i) override {
    const Op& o = ops_[i];
    OpCheck out;
    if (!result_.ok()) {
      out.error = result_.status().ToString();
      return out;
    }
    const engine::QueryResult& r = result_->result;
    out.sim_cycles = r.sim_cycles;
    const uint64_t matched = matched_[o.statement];
    out.error = r.rows_matched != matched
                    ? "rows_matched " + std::to_string(r.rows_matched) +
                          " want " + std::to_string(matched)
                    : Compare(r, answers_[o.statement]);
    out.ok = out.error.empty();
    if (counting_) {
      const sim::MemStats s = fabric_->memory().stats();
      lines_ += s.l1_hits + s.l1_misses + s.dram_lines_gather;
      cycles_ += r.sim_cycles;
      ++counted_ops_;
      if (result_->plan.backend == Backend::kHybrid) {
        hybrid_scanned_ += r.rows_scanned;
        hybrid_matched_ += r.rows_matched;
      }
    }
    return out;
  }

  void StartCounting() override { counting_ = true; }

  bool Probe(SpanRecorder*) override { return true; }

  void ReportLayers(const SpanRecorder& spans, Metrics* out) override {
    const size_t n = ops_.size();
    auto hybrid = [&](uint64_t op) {
      return op != 0 && ops_[OpIndex(op, n)].forced == Backend::kHybrid;
    };
    auto grouped = [&](uint64_t op) {
      return op != 0 && ops_[OpIndex(op, n)].statement != kQ6;
    };
    const double lines = static_cast<double>(lines_);
    const double ops = static_cast<double>(counted_ops_);
    // Spans cover the traced rounds only, counts every round; both are
    // whole rounds, so compare per-op means.
    const std::vector<double> op_ms = spans.DurationsMs("bench.op");
    Add(out, "engine.hybrid_ms",
        Median(spans.DurationsMs("core.execute_sql", hybrid)), "ms");
    Add(out, "engine.groupby_ms",
        Median(spans.DurationsMs("core.execute_sql", grouped)), "ms");
    Add(out, "query.rows_scanned_per_match",
        Ratio(static_cast<double>(hybrid_scanned_),
              static_cast<double>(hybrid_matched_)),
        "ratio");
    Add(out, "sim.lines_per_op.tpch_sql", Ratio(lines, ops), "count");
    Add(out, "sim.cycles_per_op.tpch_sql",
        Ratio(static_cast<double>(cycles_), ops), "cycles");
    Add(out, "sim.host_ns_per_line.tpch_sql",
        Ratio(Ratio(SumNs(op_ms), static_cast<double>(op_ms.size())),
              Ratio(lines, ops)),
        "ns");
  }

 private:
  uint64_t seed_;
  std::vector<Op> ops_;
  std::string sql_[kNumStatements];
  Answer answers_[kNumStatements];
  uint64_t matched_[kNumStatements] = {};

  std::unique_ptr<Fabric> fabric_;
  StatusOr<Fabric::SqlResult> result_ = Status::Internal("no op ran");

  bool counting_ = false;
  uint64_t counted_ops_ = 0;
  uint64_t lines_ = 0;
  uint64_t cycles_ = 0;
  uint64_t hybrid_scanned_ = 0;
  uint64_t hybrid_matched_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchSql(uint64_t seed) {
  return std::make_unique<TpchSql>(seed);
}

}  // namespace relfab::perfbench
