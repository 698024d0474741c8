#ifndef RELFAB_EXEC_EXEC_CONTEXT_H_
#define RELFAB_EXEC_EXEC_CONTEXT_H_

#include "exec/options.h"
#include "faults/health.h"
#include "faults/injector.h"
#include "obs/digest.h"
#include "obs/flight_recorder.h"
#include "obs/query_profile.h"
#include "obs/trace.h"

namespace relfab::exec {

class ShardScheduler;

/// Everything one query execution needs beyond the plan, passed by value
/// through Executor::Execute. Replaces the old setter soup
/// (set_tracer / set_fault_injector) and the profile out-param: the
/// executor itself stays stateless wiring, and two concurrent callers
/// can run with different contexts against the same executor.
///
/// All pointers are optional (null = feature off) and non-owning; the
/// caller keeps them alive for the duration of the call.
struct ExecContext {
  /// Span tracing for the statement ("query.execute" etc.).
  obs::Tracer* tracer = nullptr;

  /// Fault-injection bookkeeping: fallbacks noted on degradation. The
  /// injection itself happens inside the components the injector was
  /// armed into (memory system, RM engine, ...).
  faults::FaultInjector* injector = nullptr;

  /// Non-null => EXPLAIN ANALYZE: per-operator meter attribution is
  /// collected into this profile.
  obs::QueryProfile* profile = nullptr;

  /// Executes shard-fanout plans; required when the plan's table is
  /// sharded, ignored otherwise.
  ShardScheduler* scheduler = nullptr;

  /// Latency digests (workload telemetry): the scheduler feeds per-shard
  /// scan cycles, the Fabric epilogue feeds per-backend statement
  /// cycles. Observations happen only in single-threaded post-join code,
  /// in shard order, so digests stay deterministic across host workers.
  obs::DigestSet* digests = nullptr;

  /// Flight recorder for incident capture: degradations and fault hits
  /// are logged here as they happen (the dump trigger lives in the
  /// telemetry epilogue).
  obs::FlightRecorder* recorder = nullptr;

  /// Failure-domain health: kill draws and circuit-breaker reports.
  /// Touched only from single-threaded coordinator code (executor
  /// dispatch, scheduler pre-fan-out / post-join) — never from shard
  /// worker tasks — so health state stays scheduling-invariant.
  faults::HealthRegistry* health = nullptr;

  /// Per-statement knobs (analyze / forced_backend / max_threads).
  QueryOptions options;
};

}  // namespace relfab::exec

#endif  // RELFAB_EXEC_EXEC_CONTEXT_H_
