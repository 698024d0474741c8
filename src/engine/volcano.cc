#include "engine/volcano.h"

#include <algorithm>
#include <cstring>

#include "engine/sink.h"
#include "sim/memory_system.h"

namespace relfab::engine {

int64_t PackCharKey(std::string_view bytes) {
  RELFAB_CHECK_LE(bytes.size(), 8u);
  int64_t key = 0;
  std::memcpy(&key, bytes.data(), bytes.size());
  return key;
}

uint64_t ScanChunkRows(uint64_t row_bytes, uint64_t l1_sets,
                       uint64_t line_bytes) {
  if (row_bytes == 0 || l1_sets < 2) return 1;
  return std::max<uint64_t>(1, (l1_sets - 1) * line_bytes / row_bytes);
}

namespace {

/// Charged field accessor over row-major base data. Each access performs
/// a simulated demand read of the field's bytes (the cache model absorbs
/// repeated touches of the same line) plus the volcano field-extraction
/// CPU cost.
///
/// When `rows_materialized` is set the caller guarantees that every
/// field access targets a row whose cache lines were demand-read
/// immediately before (the scan operator materializes the whole tuple
/// and nothing else touches simulated memory until the row is
/// consumed), so the field's lines are L1-resident and MRU of their
/// sets — the precondition of MemorySystem::ReadL1Resident. The index
/// path (ExecuteOnRowIds) has no such materialization and keeps the
/// general Read.
class RowFieldReader {
 public:
  /// `batch_charges` additionally defers the (provable) L1-hit charges
  /// of materialized-row field reads into one bulk ChargeMruHits call:
  /// exact for cycles and stats (AddRepeated over any grouping replays
  /// the same scalar sum, hit counts are integers), but it shifts when
  /// the cycles land — so it is disabled under EXPLAIN ANALYZE, whose
  /// per-operator attribution samples the meters between operators.
  RowFieldReader(const layout::RowTable* table, const CostModel* cost,
                 bool rows_materialized, bool batch_charges)
      : table_(table),
        memory_(table->memory()),
        cost_(cost),
        rows_materialized_(rows_materialized),
        batch_charges_(batch_charges) {}

  double GetNumeric(uint64_t row, uint32_t col) {
    Charge(row, col);
    return table_->GetDouble(row, col);
  }

  int64_t GetKey(uint64_t row, uint32_t col) {
    Charge(row, col);
    if (table_->schema().type(col) == layout::ColumnType::kChar) {
      return PackCharKey(table_->GetChar(row, col));
    }
    return table_->GetInt(row, col);
  }

  /// Charges any deferred field touches; must run before the engine
  /// reads ElapsedCycles.
  void FlushCharges() {
    memory_->ChargeMruHits(pending_touches_);
    pending_touches_ = 0;
  }

 private:
  void Charge(uint64_t row, uint32_t col) {
    if (rows_materialized_) {
      const uint64_t addr = table_->FieldAddress(row, col);
      const uint32_t width = table_->schema().width(col);
      RELFAB_DCHECK(memory_->DebugCheckMruResident(addr, width))
          << "field read of row " << row << " col " << col
          << " is not L1-resident";
      if (batch_charges_) {
        pending_touches_ += ((addr + width - 1) >> 6) - (addr >> 6) + 1;
      } else {
        memory_->ReadL1Resident(addr, width);
      }
    } else {
      memory_->Read(table_->FieldAddress(row, col),
                    table_->schema().width(col));
    }
    memory_->CpuWork(cost_->volcano_field_cycles);
  }

  const layout::RowTable* table_;
  sim::MemorySystem* memory_;
  const CostModel* cost_;
  bool rows_materialized_;
  bool batch_charges_;
  uint64_t pending_touches_ = 0;
};

/// Volcano iterator interface: produces row ids one at a time.
class TupleSource {
 public:
  virtual ~TupleSource() = default;
  /// Advances to the next tuple; returns false at end of stream.
  virtual bool Next(uint64_t* row) = 0;
};

class ScanOperator : public TupleSource {
 public:
  ScanOperator(const layout::RowTable* table, sim::MemorySystem* memory,
               const CostModel* cost, obs::OpProfiler* prof, int op)
      : table_(table),
        num_rows_(table->num_rows()),
        memory_(memory),
        cost_(cost),
        prof_(prof),
        op_(op) {
    // Materialization is charged per *chunk* of rows instead of per row:
    // one maximal demand Read over the chunk's line span (which the fast
    // path collapses to a closed-form covered run) plus a counted charge
    // for the row-boundary lines the per-row replay would re-hit. The
    // chunk is capped (ScanChunkRows) so every chunk line is still the
    // MRU of its cache set when the consumer reads the row's fields (the
    // ReadL1Resident/ChargeMruHits precondition).
    chunk_rows_ = ScanChunkRows(table->row_bytes(), memory->params().l1_sets(),
                                memory->params().cache_line_bytes);
  }

  bool Next(uint64_t* row) override {
    if (prof_ != nullptr) prof_->Switch(op_);
    memory_->CpuWork(cost_->volcano_next_cycles);
    if (next_ == num_rows_) return false;
    *row = next_;
    // Tuple-at-a-time scan materializes the whole tuple: every cache
    // line of the row crosses the hierarchy whether or not the query
    // needs it — the data movement Relational Fabric removes (Fig. 1).
    if (next_ == chunk_end_) ChargeChunk();
    ++next_;
    if (prof_ != nullptr) ++prof_->op(op_).rows_out;
    return true;
  }

 private:
  /// Charges the materialization of rows [chunk_end_, chunk_end_ +
  /// chunk_rows_). Equivalence with the per-row replay: the per-row
  /// Reads visit the span's lines in increasing order, missing each
  /// distinct line exactly once and re-hitting a line only when a row
  /// starts mid-line (its first line was the previous row's last, and
  /// that line — the most recently inserted of its set — is hit with an
  /// LRU touch that is a no-op for an MRU line). One Read over the span
  /// reproduces the misses, state and counters; ChargeMruHits reproduces
  /// the re-hits. Only the order cpu_cycles accumulates in changes
  /// (ulp-level; see docs/performance.md).
  void ChargeChunk() {
    const uint64_t first_row = chunk_end_;
    const uint64_t end_row = std::min(num_rows_, first_row + chunk_rows_);
    chunk_end_ = end_row;
    const uint64_t row_bytes = table_->row_bytes();
    const uint64_t begin = table_->RowAddress(first_row);
    const uint64_t end = table_->RowAddress(end_row - 1) + row_bytes;
    uint64_t first_line = begin >> 6;
    const uint64_t last_line = (end - 1) >> 6;
    // The chunk's first line can be the tail of the previous chunk's
    // last row; the replay hits it before missing the rest.
    if (first_line == prev_last_line_) {
      RELFAB_DCHECK(memory_->DebugCheckMruResident(first_line << 6, 1));
      memory_->ChargeMruHits(1);
      ++first_line;
    }
    if (first_line <= last_line) {
      memory_->Read(first_line << 6, (last_line - first_line + 1) << 6);
    }
    // Interior rows starting mid-line re-hit their predecessor's last
    // line (addr % line != 0 <=> first line == previous row's last).
    uint64_t hits = 0;
    for (uint64_t r = first_row + 1; r < end_row; ++r) {
      if ((table_->RowAddress(r) & 63) != 0) {
        RELFAB_DCHECK(
            memory_->DebugCheckMruResident(table_->RowAddress(r), 1));
        ++hits;
      }
    }
    memory_->ChargeMruHits(hits);
    prev_last_line_ = last_line;
  }

  const layout::RowTable* table_;
  uint64_t num_rows_;
  uint64_t next_ = 0;
  uint64_t chunk_rows_ = 1;
  uint64_t chunk_end_ = 0;
  uint64_t prev_last_line_ = ~0ull;
  sim::MemorySystem* memory_;
  const CostModel* cost_;
  obs::OpProfiler* prof_;
  int op_;
};

class FilterOperator : public TupleSource {
 public:
  FilterOperator(TupleSource* child, const std::vector<Predicate>* predicates,
                 RowFieldReader* reader, sim::MemorySystem* memory,
                 const CostModel* cost, obs::OpProfiler* prof, int op)
      : child_(child),
        predicates_(predicates),
        reader_(reader),
        memory_(memory),
        cost_(cost),
        prof_(prof),
        op_(op) {}

  bool Next(uint64_t* row) override {
    while (child_->Next(row)) {
      if (prof_ != nullptr) {
        prof_->Switch(op_);
        ++prof_->op(op_).rows_in;
      }
      memory_->CpuWork(cost_->volcano_next_cycles);
      if (Qualifies(*row)) {
        if (prof_ != nullptr) ++prof_->op(op_).rows_out;
        return true;
      }
    }
    return false;
  }

 private:
  // Conjuncts short-circuit: a tuple-at-a-time interpreter stops at the
  // first failing term (unlike the vectorized engines, which evaluate
  // predicate columns in full).
  bool Qualifies(uint64_t row) {
    for (const Predicate& p : *predicates_) {
      const double v = reader_->GetNumeric(row, p.column);
      memory_->CpuWork(cost_->compare_cycles);
      bool pass = false;
      switch (p.op) {
        case CompareOp::kLt:
          pass = v < p.double_operand;
          break;
        case CompareOp::kLe:
          pass = v <= p.double_operand;
          break;
        case CompareOp::kGt:
          pass = v > p.double_operand;
          break;
        case CompareOp::kGe:
          pass = v >= p.double_operand;
          break;
        case CompareOp::kEq:
          pass = v == p.double_operand;
          break;
        case CompareOp::kNe:
          pass = v != p.double_operand;
          break;
      }
      if (!pass) return false;
    }
    return true;
  }

  TupleSource* child_;
  const std::vector<Predicate>* predicates_;
  RowFieldReader* reader_;
  sim::MemorySystem* memory_;
  const CostModel* cost_;
  obs::OpProfiler* prof_;
  int op_;
};

}  // namespace

StatusOr<QueryResult> VolcanoEngine::Execute(const QuerySpec& query) {
  RELFAB_RETURN_IF_ERROR(query.Validate(table_->schema()));
  sim::MemorySystem* memory = table_->memory();
  RowFieldReader reader(table_, &cost_, /*rows_materialized=*/true,
                        /*batch_charges=*/prof_ == nullptr);

  int op_scan = -1, op_filter = -1, op_sink = -1;
  if (prof_ != nullptr) {
    op_scan = prof_->AddOp("Scan");
    prof_->op(op_scan).rows_in = table_->num_rows();
    if (!query.predicates.empty()) op_filter = prof_->AddOp("Filter");
    op_sink =
        prof_->AddOp(query.aggregates.empty() ? "Project" : "Aggregate");
  }

  ScanOperator scan(table_, memory, &cost_, prof_, op_scan);
  FilterOperator filter(&scan, &query.predicates, &reader, memory, &cost_,
                        prof_, op_filter);
  TupleSource* top = query.predicates.empty()
                         ? static_cast<TupleSource*>(&scan)
                         : static_cast<TupleSource*>(&filter);

  QueryResult result;
  result.rows_scanned = table_->num_rows();

  QuerySink sink(query, table_->schema(), memory, cost_);
  uint64_t current_row = 0;
  const auto key_fn = [&](uint32_t col) {
    return reader.GetKey(current_row, col);
  };
  const auto col_fn = [&](uint32_t col) {
    return reader.GetNumeric(current_row, col);
  };

  uint64_t row = 0;
  while (top->Next(&row)) {
    if (prof_ != nullptr) {
      prof_->Switch(op_sink);
      ++prof_->op(op_sink).rows_in;
    }
    ++result.rows_matched;
    current_row = row;
    sink.Add(key_fn, col_fn);
  }

  if (prof_ != nullptr) {
    prof_->Finish();
    prof_->op(op_sink).rows_out = sink.RowsOut(result.rows_matched);
  }
  sink.Finalize(&result);
  reader.FlushCharges();
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

StatusOr<QueryResult> VolcanoEngine::ExecuteOnRowIds(
    const QuerySpec& query, const std::vector<uint64_t>& rows) {
  RELFAB_RETURN_IF_ERROR(query.Validate(table_->schema()));
  sim::MemorySystem* memory = table_->memory();
  RowFieldReader reader(table_, &cost_, /*rows_materialized=*/false,
                        /*batch_charges=*/false);

  int op_fetch = -1, op_sink = -1;
  if (prof_ != nullptr) {
    // The candidate loop fetches + filters in one pass; model it as one
    // "IndexFetch" operator feeding the aggregate/projection sink.
    op_fetch = prof_->AddOp("IndexFetch");
    prof_->op(op_fetch).rows_in = rows.size();
    op_sink =
        prof_->AddOp(query.aggregates.empty() ? "Project" : "Aggregate");
  }

  QueryResult result;
  result.rows_scanned = rows.size();

  QuerySink sink(query, table_->schema(), memory, cost_);
  uint64_t current_row = 0;
  const auto key_fn = [&](uint32_t col) {
    return reader.GetKey(current_row, col);
  };
  const auto col_fn = [&](uint32_t col) {
    return reader.GetNumeric(current_row, col);
  };

  for (uint64_t row : rows) {
    if (row >= table_->num_rows()) {
      return Status::OutOfRange("candidate row out of range");
    }
    if (prof_ != nullptr) prof_->Switch(op_fetch);
    memory->CpuWork(cost_.volcano_next_cycles);
    bool pass = true;
    for (const Predicate& p : query.predicates) {
      const double v = reader.GetNumeric(row, p.column);
      memory->CpuWork(cost_.compare_cycles);
      bool term = false;
      switch (p.op) {
        case CompareOp::kLt:
          term = v < p.double_operand;
          break;
        case CompareOp::kLe:
          term = v <= p.double_operand;
          break;
        case CompareOp::kGt:
          term = v > p.double_operand;
          break;
        case CompareOp::kGe:
          term = v >= p.double_operand;
          break;
        case CompareOp::kEq:
          term = v == p.double_operand;
          break;
        case CompareOp::kNe:
          term = v != p.double_operand;
          break;
      }
      if (!term) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    if (prof_ != nullptr) {
      ++prof_->op(op_fetch).rows_out;
      prof_->Switch(op_sink);
      ++prof_->op(op_sink).rows_in;
    }
    ++result.rows_matched;
    current_row = row;
    sink.Add(key_fn, col_fn);
  }

  if (prof_ != nullptr) {
    prof_->Finish();
    prof_->op(op_sink).rows_out = sink.RowsOut(result.rows_matched);
  }
  sink.Finalize(&result);
  result.sim_cycles = memory->ElapsedCycles();
  return result;
}

}  // namespace relfab::engine
