// fig5_scan: the paper's Figure 5 cells, ROW / COL / RM x projectivity
// 1..11, run by calling the three engines directly on a 16 x int32 (64 B
// row) table, with MemorySystem::ResetState before each cell as
// bench/fig5_projectivity does. Single-threaded; no SQL, shards or
// network. The table is 131072 rows = 8 MiB, 8x the simulated 1 MiB L2,
// so every cell streams from simulated DRAM.

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/rm_exec.h"
#include "engine/vector_engine.h"
#include "engine/volcano.h"
#include "layout/column_table.h"
#include "layout/row_table.h"
#include "perfbench/harness.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::perfbench {
namespace {

constexpr uint64_t kRows = 1ull << 17;
constexpr uint32_t kColumns = 16;
constexpr uint32_t kMaxProjectivity = 11;

enum Backend : uint8_t { kRow, kCol, kRm };
constexpr const char* kEngineSpan[] = {"engine.row", "engine.col",
                                       "engine.rm"};

struct Cell {
  Backend backend;
  uint32_t k;
};

engine::QuerySpec ProjectionQuery(uint32_t k) {
  engine::QuerySpec spec;
  for (uint32_t c = 0; c < k; ++c) spec.projection.push_back(c);
  return spec;
}

class Fig5Scan final : public Workload {
 public:
  explicit Fig5Scan(uint64_t seed) : seed_(seed) {
    for (Backend b : {kRow, kCol, kRm}) {
      for (uint32_t k = 1; k <= kMaxProjectivity; ++k) {
        cells_.push_back({b, k});
      }
    }
    Shuffle(&cells_, seed ^ 0xf165ull);
    for (uint32_t k = 1; k <= kMaxProjectivity; ++k) {
      queries_[k] = ProjectionQuery(k);
    }
  }

  void Build(SpanRecorder* spans) override {
    memory_ = std::make_unique<sim::MemorySystem>();
    {
      SpanRecorder::Scope span(spans, "layout.load");
      table_ = std::make_unique<layout::RowTable>(
          layout::Schema::Uniform(kColumns, layout::ColumnType::kInt32),
          memory_.get(), kRows);
      layout::RowBuilder builder(&table_->schema());
      Random rng(seed_);
      for (uint64_t r = 0; r < kRows; ++r) {
        builder.Reset();
        for (uint32_t c = 0; c < kColumns; ++c) {
          builder.AddInt32(static_cast<int32_t>(rng.Uniform(100)));
        }
        table_->AppendRow(builder.Finish());
      }
    }
    {
      SpanRecorder::Scope span(spans, "layout.columnar_copy");
      columns_ =
          std::make_unique<layout::ColumnTable>(*table_, memory_.get());
    }
    rm_ = std::make_unique<relmem::RmEngine>(memory_.get());
  }

  void ComputeOracle() override {
    // Projection answers are the sum of the projected values, so the
    // expected checksum for projectivity k is a prefix sum of per-column
    // totals read straight from the row bytes.
    std::array<int64_t, kColumns> column_sums{};
    for (uint64_t r = 0; r < kRows; ++r) {
      for (uint32_t c = 0; c < kColumns; ++c) {
        column_sums[c] += table_->GetInt(r, c);
      }
    }
    expected_[0] = 0;
    for (uint32_t k = 1; k <= kMaxProjectivity; ++k) {
      expected_[k] = expected_[k - 1] + column_sums[k - 1];
    }
  }

  size_t RoundSize() const override { return cells_.size(); }
  bool InWarmup(size_t i) const override { return cells_[i].k == 1; }

  void Execute(size_t i, SpanRecorder* spans, uint64_t op) override {
    const Cell& cell = cells_[i];
    if (counting_) {
      fast_before_ = FastLines();
      chunks_before_ = rm_->chunks_produced();
    }
    {
      SpanRecorder::Scope span(spans, "sim.reset", op);
      memory_->ResetState();
    }
    SpanRecorder::Scope span(spans, kEngineSpan[cell.backend], op);
    const engine::QuerySpec& query = queries_[cell.k];
    switch (cell.backend) {
      case kRow:
        result_ = engine::VolcanoEngine(table_.get()).Execute(query);
        break;
      case kCol:
        result_ = engine::VectorEngine(columns_.get()).Execute(query);
        break;
      case kRm:
        result_ = engine::RmExecEngine(table_.get(), rm_.get()).Execute(query);
        break;
    }
  }

  OpCheck Check(size_t i) override {
    const Cell& cell = cells_[i];
    OpCheck out;
    if (!result_.ok()) {
      out.error = result_.status().ToString();
      return out;
    }
    out.sim_cycles = result_->sim_cycles;
    const double want = static_cast<double>(expected_[cell.k]);
    if (result_->rows_scanned != kRows) {
      out.error = "rows_scanned " + std::to_string(result_->rows_scanned);
    } else if (result_->projection_checksum != want) {
      out.error = "checksum " + std::to_string(result_->projection_checksum) +
                  " want " + std::to_string(want);
    } else {
      out.ok = true;
    }
    if (counting_) {
      const sim::MemStats s = memory_->stats();
      lines_ += s.l1_hits + s.l1_misses + s.dram_lines_gather;
      fast_lines_ += FastLines() - fast_before_;
      cycles_ += result_->sim_cycles;
      ++ops_;
      if (cell.backend == kRm) {
        rm_chunks_ += rm_->chunks_produced() - chunks_before_;
        ++rm_ops_;
      }
    }
    return out;
  }

  void StartCounting() override { counting_ = true; }

  bool Probe(SpanRecorder* spans) override {
    // RM configure + a Cursor walk of the view: the relmem layer on its
    // own, outside any engine. Two passes over projectivity 1..11.
    counting_ = false;
    bool ok = true;
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t k = 1; k <= kMaxProjectivity; ++k) {
        memory_->ResetState();
        std::optional<StatusOr<relmem::EphemeralView>> view;
        {
          SpanRecorder::Scope span(spans, "relmem.configure");
          view.emplace(
              rm_->Configure(*table_, relmem::Geometry::FirstColumns(k)));
        }
        if (!view->ok()) return false;
        int64_t sum = 0;
        uint64_t rows = 0;
        {
          SpanRecorder::Scope span(spans, "relmem.drain");
          for (relmem::EphemeralView::Cursor cur(&view->value());
               cur.Valid(); cur.Advance()) {
            for (uint32_t f = 0; f < k; ++f) sum += cur.GetInt(f);
            ++rows;
          }
        }
        drained_rows_ += rows;
        ok = ok && (*view)->status().ok() && rows == kRows &&
             sum == expected_[k];
      }
    }
    return ok;
  }

  void ReportLayers(const SpanRecorder& spans, Metrics* out) override {
    const double lines = static_cast<double>(lines_);
    const double ops = static_cast<double>(ops_);
    // Spans cover the traced rounds only, counts every round; both are
    // whole rounds, so compare per-op means.
    const std::vector<double> op_ms = spans.DurationsMs("bench.op");
    Add(out, "engine.row_ms", Median(spans.DurationsMs("engine.row")), "ms");
    Add(out, "engine.col_ms", Median(spans.DurationsMs("engine.col")), "ms");
    Add(out, "engine.rm_ms", Median(spans.DurationsMs("engine.rm")), "ms");
    Add(out, "relmem.configure_us",
        Median(spans.DurationsMs("relmem.configure")) * 1e3, "us");
    Add(out, "relmem.drain_ns_per_row",
        Ratio(SumNs(spans.DurationsMs("relmem.drain")),
              static_cast<double>(drained_rows_)),
        "ns");
    Add(out, "relmem.chunks_per_op",
        Ratio(static_cast<double>(rm_chunks_), static_cast<double>(rm_ops_)),
        "count");
    Add(out, "sim.fastpath_share",
        Ratio(static_cast<double>(fast_lines_), lines), "ratio");
    Add(out, "sim.lines_per_op.fig5_scan", Ratio(lines, ops), "count");
    Add(out, "sim.cycles_per_op.fig5_scan",
        Ratio(static_cast<double>(cycles_), ops), "cycles");
    Add(out, "sim.host_ns_per_line.fig5_scan",
        Ratio(Ratio(SumNs(op_ms), static_cast<double>(op_ms.size())),
              Ratio(lines, ops)),
        "ns");
  }

 private:
  uint64_t FastLines() const {
    return memory_->fastpath_lines() + memory_->fastpath_memo_hits();
  }

  uint64_t seed_;
  std::vector<Cell> cells_;
  std::array<engine::QuerySpec, kMaxProjectivity + 1> queries_;
  std::array<int64_t, kMaxProjectivity + 1> expected_{};

  std::unique_ptr<sim::MemorySystem> memory_;
  std::unique_ptr<layout::RowTable> table_;
  std::unique_ptr<layout::ColumnTable> columns_;
  std::unique_ptr<relmem::RmEngine> rm_;
  StatusOr<engine::QueryResult> result_ = Status::Internal("no op ran");

  // Simulated counts of the traced phase (exact; they repeat per seed).
  bool counting_ = false;
  uint64_t fast_before_ = 0;
  uint64_t chunks_before_ = 0;
  uint64_t ops_ = 0;
  uint64_t rm_ops_ = 0;
  uint64_t lines_ = 0;
  uint64_t fast_lines_ = 0;
  uint64_t cycles_ = 0;
  uint64_t rm_chunks_ = 0;
  uint64_t drained_rows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeFig5Scan(uint64_t seed) {
  return std::make_unique<Fig5Scan>(seed);
}

}  // namespace relfab::perfbench
