#ifndef RELFAB_EXEC_OPTIONS_H_
#define RELFAB_EXEC_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/statusor.h"
#include "net/network_model.h"

namespace relfab::exec {

/// Access path a query runs on. Lives in exec (not query) so the
/// execution layer — including the shard scheduler — can name backends
/// without depending on the planner; relfab::query aliases it back.
enum class Backend : uint8_t {
  kRow,               // volcano over the row base data
  kColumn,            // vectorized over a materialized columnar copy
  kRelationalMemory,  // vectorized over an ephemeral column group
  kIndex,             // B+-tree point lookup, then fetch from row data
  kHybrid,            // ephemeral predicate stream + base-row fetch
};

inline std::string_view BackendToString(Backend backend) {
  switch (backend) {
    case Backend::kRow:
      return "ROW";
    case Backend::kColumn:
      return "COL";
    case Backend::kRelationalMemory:
      return "RM";
    case Backend::kIndex:
      return "INDEX";
    case Backend::kHybrid:
      return "HYBRID";
  }
  return "?";
}

inline StatusOr<Backend> BackendFromString(std::string_view name) {
  if (name == "ROW") return Backend::kRow;
  if (name == "COL") return Backend::kColumn;
  if (name == "RM") return Backend::kRelationalMemory;
  if (name == "INDEX") return Backend::kIndex;
  if (name == "HYBRID") return Backend::kHybrid;
  return Status::InvalidArgument("unknown backend '" + std::string(name) +
                                 "' (ROW, COL, RM, INDEX, HYBRID)");
}

/// Per-statement knobs, threaded from the API surface down to the
/// executor through ExecContext. Defaults are the zero-cost path:
/// no profiling, planner-chosen backend, one simulated worker per
/// surviving shard.
struct QueryOptions {
  /// EXPLAIN ANALYZE: attribute simulator meters to operators and fill
  /// the context's QueryProfile.
  bool analyze = false;

  /// Overrides the planner's backend choice. The planner still validates
  /// feasibility (e.g. COL needs a materialized copy); an infeasible
  /// override is an InvalidArgument at plan time. Sharded tables accept
  /// ROW and RM.
  std::optional<Backend> forced_backend = std::nullopt;

  /// Overrides the planner's per-shard ship-mode choice (rows vs partial
  /// aggregates) when a cluster is configured; both modes compute the
  /// identical partials on the node, so this changes cycles and wire
  /// bytes, never the answer. InvalidArgument on an unsharded plan or
  /// without a configured cluster.
  std::optional<net::ShipMode> forced_ship = std::nullopt;

  /// Width of the simulated shard fan-out: surviving shards are assigned
  /// shard-major to this many simulated workers, and the fan-out's
  /// elapsed cycles are the busiest worker plus the merge. <= 0 means
  /// one simulated worker per surviving shard (maximum parallelism).
  /// This is a *simulated* knob: host threading never changes answers or
  /// cycles. With a cluster configured the fan-out width is the node
  /// count (shards run where their data lives) and this knob is unused.
  int max_threads = 0;

  /// Availability over completeness: when none of a shard's replicas is
  /// live (all killed), skip it and return the answer over the surviving
  /// shards with QueryResult::partial set, instead of failing the
  /// statement with kUnavailable. Default off — a partial aggregate is
  /// wrong unless the caller opted in.
  bool allow_partial = false;

  /// Cycle-domain deadline: > 0 makes the shard scheduler cancel shards
  /// whose (simulated) completion would land past this many cycles and
  /// fail the statement with kDeadlineExceeded, profile intact. The
  /// deadline is evaluated on the simulated clock, so expiry is
  /// bit-identical across host thread counts. 0 = no deadline.
  uint64_t deadline_cycles = 0;
};

}  // namespace relfab::exec

#endif  // RELFAB_EXEC_OPTIONS_H_
