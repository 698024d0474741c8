// Shared pieces of the host-cost benchmark: the host clock, the span
// recorder of the traced run, latency summaries and the workload
// interface the three workloads implement.
//
// Everything here is host-domain (wall time or memory of this process).
// None of it feeds the library's simulated clocks: spans live in this
// program's memory and are written to a file at exit, never into
// obs::Tracer or any other cycle sink.

#ifndef RELFAB_PERFBENCH_HARNESS_H_
#define RELFAB_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace relfab {
class Fabric;
namespace engine {
struct QueryResult;
}  // namespace engine
}  // namespace relfab

namespace relfab::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // relfab-lint: allow(wall-clock) host-domain timer, never a cycle
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (nearest-rank on the sorted copy); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

/// Nearest-rank percentile `q` in [0, 1] of `sorted` (ascending).
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// In-memory recorder of host-time spans: name, start, end, parent and
/// op id. A span's layer is its name up to the first '.', so
/// "engine.row" belongs to the engine layer and "bench.op" to the
/// benchmark's own loop. Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t op;
  };

  /// RAII span; a null or disabled recorder records nothing.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, uint64_t op = 0)
        : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr),
          index_(rec_ != nullptr ? rec_->Begin(name, op) : -1) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int32_t index_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of the spans called `name`, keeping
  /// only those whose op id passes `keep` when one is given.
  std::vector<double> DurationsMs(
      const std::string& name,
      const std::function<bool(uint64_t op)>& keep = nullptr) const;

  /// Per-layer self time in seconds: each span's duration minus the
  /// part covered by its child spans, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes the spans as Chrome trace-event JSON (ts/dur in host
  /// microseconds); false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int32_t Begin(const char* name, uint64_t op) {
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
    const int32_t index = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// One named metric of the final report.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

inline void Add(Metrics* out, std::string name, double value,
                std::string unit) {
  out->push_back({std::move(name), {value, std::move(unit)}});
}

/// num / den, 0 when den is 0.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Sum of `ms` in nanoseconds.
inline double SumNs(const std::vector<double>& ms) {
  double ns = 0;
  for (double v : ms) ns += v * 1e6;
  return ns;
}

/// Outcome of checking one op against the host-side oracle.
struct OpCheck {
  bool ok = false;
  uint64_t sim_cycles = 0;
  std::string error;  // first mismatch, for the failure log
};

/// One benchmark workload: a seeded input set plus a fixed op stream
/// (the "round") that a run replays from its start until time is up.
/// Every round runs the same ops in the same order, so the multiset of
/// op classes is identical in every run.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The set-up calls: data generation, loads, columnar copy, ANALYZE,
  /// cluster configuration. Timed as setup_s.
  virtual void Build(SpanRecorder* spans) = 0;

  /// Computes the expected answers from the generated rows on the host,
  /// sharing no engine or expression code with the library. Untimed.
  virtual void ComputeOracle() = 0;

  /// Ops per round.
  virtual size_t RoundSize() const = 0;

  /// True for the round's ops that also run once, in round order, as the
  /// warm-up at the end of set-up (counted in setup_s, never in op
  /// latency). The chosen op classes do not depend on the seed, so every
  /// seed warms up with the same work.
  virtual bool InWarmup(size_t i) const = 0;

  /// Runs op `i` of the round through the library's public entry
  /// points. The caller times this call; it must do no checking.
  virtual void Execute(size_t i, SpanRecorder* spans, uint64_t op_id) = 0;

  /// Checks the answer of the op `Execute(i)` just ran against the
  /// oracle and returns its simulated cycles. When counting is on, also
  /// accumulates the workload's simulated per-layer counts.
  virtual OpCheck Check(size_t i) = 0;

  /// Starts accumulating simulated counts in Check (traced run only).
  virtual void StartCounting() = 0;

  /// Traced run only: the extra timed calls that are not ops (EXPLAIN,
  /// CollectMetrics, RM configure and drain). Returns false on a wrong
  /// answer or non-OK status.
  virtual bool Probe(SpanRecorder* spans) = 0;

  /// Traced run only: appends this workload's per-layer metrics, taken
  /// from `spans` and the counts accumulated since StartCounting.
  virtual void ReportLayers(const SpanRecorder& spans, Metrics* out) = 0;

  /// Host threads the workload's own calls may use (environment record).
  virtual int HostThreads() const { return 1; }

  /// Name of op `i`'s class, for the rank report of the measured run;
  /// empty when the workload does not report one.
  virtual std::string OpClass(size_t) const { return ""; }
};

/// Op ids: op `i` of round `r` has id r * RoundSize() + i + 1; id 0 marks
/// spans that belong to no op (set-up, probes).
inline uint64_t OpId(uint64_t round, size_t i, size_t round_size) {
  return round * round_size + i + 1;
}
inline size_t OpIndex(uint64_t op, size_t round_size) {
  return static_cast<size_t>((op - 1) % round_size);
}

std::unique_ptr<Workload> MakeFig5Scan(uint64_t seed);
std::unique_ptr<Workload> MakeTpchSql(uint64_t seed);
std::unique_ptr<Workload> MakeShardPointMixed(uint64_t seed);

/// Environment pin: every fabric the benchmark builds must come up with
/// fault injection unarmed. Exits the process otherwise.
void RequireUnarmed(Fabric& fabric);

/// Seeded Fisher-Yates shuffle (relfab::Random, so the order is the same
/// on every platform).
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  Random rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

/// Expected answer of one statement: ungrouped aggregates, or (key,
/// aggregates) groups in ascending key order.
struct Answer {
  std::vector<double> aggregates;
  std::vector<std::pair<std::vector<int64_t>, std::vector<double>>> groups;
};

/// Compares `r`'s aggregates and groups with `want` (values with Close);
/// returns the first difference, or "" when they match.
std::string Compare(const engine::QueryResult& r, const Answer& want);

/// Relative comparison for aggregate answers: the oracle sums in row
/// order like the engines, but a backend may associate differently.
inline bool Close(double got, double want) {
  const double scale = std::max({1.0, got < 0 ? -got : got,
                                 want < 0 ? -want : want});
  const double diff = got - want;
  return (diff < 0 ? -diff : diff) <= 1e-9 * scale;
}

}  // namespace relfab::perfbench

#endif  // RELFAB_PERFBENCH_HARNESS_H_
