#include "obs/telemetry.h"

#include <sstream>

#include "common/format.h"

namespace relfab::obs {

WorkloadTelemetry::WorkloadTelemetry(TelemetryConfig config)
    : config_(std::move(config)),
      timeseries_(config_.window_cycles, config_.timeseries_capacity),
      query_log_(config_.query_log_capacity),
      flight_recorder_(config_.flight_recorder_capacity) {
  // The bundle's own exported counters are always tracked; configured
  // instruments come on top.
  timeseries_.Track("telemetry.statements");
  timeseries_.Track("telemetry.cycles");
  timeseries_.Track("telemetry.errors");
  timeseries_.Track("telemetry.degraded");
  timeseries_.Track("telemetry.faults.injected");
  for (const std::string& name : config_.tracked) timeseries_.Track(name);
}

void WorkloadTelemetry::RecordStatement(QueryLogRecord record) {
  workload_cycles_ += record.cycles;
  ++statements_;
  if (record.status != "ok") ++errors_;
  if (record.degraded) ++degraded_statements_;
  faults_injected_ += record.faults_injected;
  fault_fallbacks_ += record.fault_fallbacks;

  digests_.Observe("query.cycles", static_cast<double>(record.cycles));
  if (!record.backend.empty()) {
    digests_.Observe("query." + record.backend + ".cycles",
                     static_cast<double>(record.cycles));
  }

  std::string dump_reason;
  if (record.degraded) {
    dump_reason = "degraded: " + record.degradation;
  } else if (record.faults_injected > 0) {
    dump_reason =
        "faults: " + std::to_string(record.faults_injected) + " injected";
  }
  record.session = config_.session;
  record.end_cycles = workload_cycles_;
  query_log_.Append(std::move(record));

  if (!dump_reason.empty()) {
    const Status dumped =
        flight_recorder_.TriggerDump(dump_reason, workload_cycles_);
    if (!dumped.ok()) ++dump_failures_;
  }
}

void WorkloadTelemetry::ExportTo(Registry* registry) const {
  registry->counter("telemetry.statements")->Set(statements_);
  registry->counter("telemetry.cycles")->Set(workload_cycles_);
  registry->counter("telemetry.errors")->Set(errors_);
  registry->counter("telemetry.degraded")->Set(degraded_statements_);
  registry->counter("telemetry.faults.injected")->Set(faults_injected_);
  registry->counter("telemetry.faults.fallbacks")->Set(fault_fallbacks_);
  registry->counter("telemetry.flight.dumps")
      ->Set(flight_recorder_.dumps());
}

Json WorkloadTelemetry::ToJson() const {
  Json doc = Json::Object();
  doc.Set("session", config_.session);
  doc.Set("workload_cycles", workload_cycles_);
  doc.Set("statements", statements_);
  doc.Set("errors", errors_);
  doc.Set("degraded", degraded_statements_);
  doc.Set("faults_injected", faults_injected_);
  doc.Set("fault_fallbacks", fault_fallbacks_);
  doc.Set("flight_recorder_dumps", flight_recorder_.dumps());
  doc.Set("timeseries", timeseries_.ToJson());
  doc.Set("digests", digests_.ToJson());
  return doc;
}

std::string WorkloadTelemetry::ToTable() const {
  std::ostringstream os;
  os << "=== workload [" << config_.session << "] ===\n"
     << "  statements=" << FormatCount(statements_)
     << " errors=" << FormatCount(errors_)
     << " degraded=" << FormatCount(degraded_statements_)
     << " faults=" << FormatCount(faults_injected_)
     << " dumps=" << FormatCount(flight_recorder_.dumps())
     << " cycles=" << FormatCount(workload_cycles_) << '\n';
  os << timeseries_.ToTable();
  os << digests_.ToTable();
  return os.str();
}

}  // namespace relfab::obs
