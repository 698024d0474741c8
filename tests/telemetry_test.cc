// Workload-telemetry integration suite: pins the acceptance contracts
// of the obs v2 bundle end-to-end through Fabric::ExecuteSql.
//
//  - Zero overhead: a telemetry-enabled run produces bit-identical
//    answers AND simulated cycles to a telemetry-free run, in both
//    simulator modes. Telemetry is host-side bookkeeping only; it may
//    never perturb the simulation.
//  - Determinism: the latency digests (and the whole query log) are
//    bit-identical across scheduler host-thread counts and across
//    fast-path/reference simulation.
//  - The structured query log records every statement with the fixed
//    schema (ValidateRecord), including error statements.
//  - The flight recorder dumps a Perfetto-compatible artifact when a
//    statement degrades under injected faults.
//  - The time-series runs on the cumulative workload clock, which stays
//    monotonic across the per-statement simulator resets.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/relational_fabric.h"

namespace relfab {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

constexpr int64_t kRows = 4000;

/// Same shape as the bench workload, scaled down: `readings` sharded
/// 4 ways on ts, `events` as a plain row table. Row content is a pure
/// function of the key so every fabric holds identical data.
std::unique_ptr<Fabric> MakeFabric() {
  auto fabric = std::make_unique<Fabric>();
  {
    auto schema = Schema::Create({
        {"ts", ColumnType::kInt64, 0},
        {"sensor", ColumnType::kInt32, 0},
        {"temp", ColumnType::kInt32, 0},
        {"hum", ColumnType::kInt32, 0},
    });
    auto* table = fabric
                      ->CreateShardedTable(
                          "readings", std::move(*schema), "ts",
                          {.splits = {kRows / 4, kRows / 2, 3 * kRows / 4}})
                      .value();
    RowBuilder b(&table->schema());
    for (int64_t i = 0; i < kRows; ++i) {
      b.Reset();
      b.AddInt64(i)
          .AddInt32(static_cast<int32_t>(i % 64))
          .AddInt32(static_cast<int32_t>((i * 13 + 7) % 500))
          .AddInt32(static_cast<int32_t>((i * 5 + 3) % 100));
      table->Append(b.Finish());
    }
  }
  {
    auto schema = Schema::Create({
        {"id", ColumnType::kInt64, 0},
        {"kind", ColumnType::kInt32, 0},
        {"amount", ColumnType::kInt32, 0},
    });
    auto* table = fabric->CreateTable("events", std::move(*schema)).value();
    RowBuilder b(&table->schema());
    for (int64_t i = 0; i < kRows / 2; ++i) {
      b.Reset();
      b.AddInt64(i)
          .AddInt32(static_cast<int32_t>(i % 8))
          .AddInt32(static_cast<int32_t>((i * 31 + 11) % 10000));
      table->AppendRow(b.Finish());
    }
  }
  return fabric;
}

const std::vector<std::string>& Statements() {
  static const std::vector<std::string> kStatements = {
      "SELECT COUNT(*), SUM(temp) FROM readings WHERE ts = 123",
      "SELECT AVG(temp), MAX(hum) FROM readings "
      "WHERE ts >= 1000 AND ts < 1500",
      "SELECT sensor, COUNT(*) FROM readings WHERE hum < 50 GROUP BY sensor",
      "SELECT kind, SUM(amount) FROM events WHERE amount < 9000 "
      "GROUP BY kind",
      "SELECT COUNT(*), SUM(temp) FROM readings WHERE ts = 3777",
  };
  return kStatements;
}

struct RunOut {
  std::vector<engine::QueryResult> results;
  uint64_t total_cycles = 0;
};

/// Replays the fixed statement list with fresh per-statement timing,
/// exactly as the shell and the bench driver do.
RunOut RunWorkload(Fabric* fabric) {
  RunOut out;
  for (const std::string& sql : Statements()) {
    fabric->memory().ResetState();
    auto r = fabric->ExecuteSql(sql, {.max_threads = 4});
    RELFAB_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    out.total_cycles += r->result.sim_cycles;
    out.results.push_back(std::move(r->result));
  }
  return out;
}

void ExpectIdenticalRuns(const RunOut& a, const RunOut& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].sim_cycles, b.results[i].sim_cycles)
        << "statement " << i;
    EXPECT_EQ(a.results[i].rows_scanned, b.results[i].rows_scanned);
    EXPECT_EQ(a.results[i].rows_matched, b.results[i].rows_matched);
    EXPECT_EQ(a.results[i].aggregates, b.results[i].aggregates);
    EXPECT_EQ(a.results[i].groups, b.results[i].groups);
  }
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

// ------------------------------------------------------- zero overhead

TEST(TelemetryTest, EnabledRunIsBitIdenticalToDisabledRun) {
  for (const bool fast_path : {true, false}) {
    auto plain = MakeFabric();
    auto instrumented = MakeFabric();
    plain->memory().set_fast_path(fast_path);
    instrumented->memory().set_fast_path(fast_path);
    instrumented->EnableTelemetry();

    const RunOut a = RunWorkload(plain.get());
    const RunOut b = RunWorkload(instrumented.get());
    // Answers and cycles: telemetry is pure observation.
    ExpectIdenticalRuns(a, b);
    EXPECT_EQ(instrumented->telemetry()->statements(),
              Statements().size());
  }
}

TEST(TelemetryTest, DisableTelemetryDetachesCleanly) {
  auto fabric = MakeFabric();
  fabric->EnableTelemetry();
  RunWorkload(fabric.get());
  ASSERT_NE(fabric->telemetry(), nullptr);
  fabric->DisableTelemetry();
  EXPECT_EQ(fabric->telemetry(), nullptr);
  EXPECT_FALSE(fabric->tracer().active());
  // Statements still execute fine with the bundle gone.
  auto r = fabric->ExecuteSql(Statements()[0]);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// -------------------------------------------------- digest determinism

/// The telemetry state that must be bit-stable across host threading
/// and simulator modes, serialized for exact comparison.
std::string TelemetrySnapshot(obs::WorkloadTelemetry* t) {
  std::string s = t->digests().ToJson().Dump();
  for (const obs::QueryLogRecord* r : t->query_log().Recent()) {
    s += "\n" + r->ToJson().Dump();
  }
  s += "\nworkload_cycles=" + std::to_string(t->workload_cycles());
  return s;
}

TEST(TelemetryTest, DigestsIdenticalAcrossHostThreadsAndSimModes) {
  std::vector<std::string> snapshots;
  for (const bool fast_path : {true, false}) {
    for (const int host_threads : {1, 4}) {
      auto fabric = MakeFabric();
      fabric->memory().set_fast_path(fast_path);
      fabric->shard_scheduler().set_host_threads(host_threads);
      fabric->EnableTelemetry();
      RunWorkload(fabric.get());
      snapshots.push_back(TelemetrySnapshot(fabric->telemetry()));
    }
  }
  // All four runs — {fast, reference} x {1, 4 host threads} — agree on
  // every digest bucket, every log record, every clock value.
  for (size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[0], snapshots[i]) << "variant " << i;
  }
}

TEST(TelemetryTest, DigestsCoverBackendsAndShards) {
  auto fabric = MakeFabric();
  fabric->EnableTelemetry();
  RunWorkload(fabric.get());
  obs::DigestSet& digests = fabric->telemetry()->digests();
  // The overall statement digest saw every statement.
  ASSERT_NE(digests.digests().find("query.cycles"),
            digests.digests().end());
  EXPECT_EQ(digests.digests().at("query.cycles")->count(),
            Statements().size());
  // Sharded statements fed both the aggregate and per-shard digests.
  ASSERT_NE(digests.digests().find("shard.cycles"),
            digests.digests().end());
  bool has_per_shard = false;
  for (const auto& [name, h] : digests.digests()) {
    if (name.rfind("shard.", 0) == 0 && name != "shard.cycles") {
      has_per_shard = true;
      EXPECT_GT(h->count(), 0u) << name;
    }
  }
  EXPECT_TRUE(has_per_shard);
}

// ----------------------------------------------------------- query log

TEST(TelemetryTest, QueryLogRecordsEveryStatementWithValidSchema) {
  auto fabric = MakeFabric();
  obs::TelemetryConfig config;
  config.session = "t";
  fabric->EnableTelemetry(std::move(config));
  const RunOut run = RunWorkload(fabric.get());

  obs::QueryLog& log = fabric->telemetry()->query_log();
  EXPECT_EQ(log.total(), Statements().size());
  auto recent = log.Recent();
  ASSERT_EQ(recent.size(), Statements().size());
  uint64_t prev_end = 0;
  for (size_t i = 0; i < recent.size(); ++i) {
    const obs::QueryLogRecord& r = *recent[i];
    EXPECT_EQ(r.seq, i);
    EXPECT_EQ(r.session, "t");
    EXPECT_EQ(r.sql, Statements()[i]);
    EXPECT_EQ(r.status, "ok");
    EXPECT_FALSE(r.backend.empty());
    EXPECT_EQ(r.cycles, run.results[i].sim_cycles);
    // The workload clock is cumulative and monotonic.
    EXPECT_EQ(r.end_cycles, prev_end + r.cycles);
    prev_end = r.end_cycles;
    auto status = obs::QueryLog::ValidateRecord(r.ToJson());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  // Sharded statements carry the pruning story.
  EXPECT_EQ(recent[0]->shards_total, 4u);   // point lookup on shard key
  EXPECT_EQ(recent[0]->shards_scanned, 1u);
  EXPECT_EQ(recent[0]->shards_pruned, 3u);
  EXPECT_EQ(recent[2]->shards_scanned, 4u);  // full fan-out group-by
  EXPECT_EQ(recent[3]->shards_total, 0u);    // unsharded table
  EXPECT_EQ(prev_end, fabric->telemetry()->workload_cycles());
}

TEST(TelemetryTest, QueryLogCountsShardsScannedNotPlanned) {
  // A partial answer plans all four shards but scans only the three
  // with a live replica; the log agrees with the profile.
  auto fabric = MakeFabric();
  fabric->EnableTelemetry();
  fabric->health().MarkDead("readings.shard1.r0", "test kill", 0);
  auto r = fabric->ExecuteSql("SELECT COUNT(*) FROM readings",
                              {.analyze = true, .allow_partial = true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->result.partial);
  EXPECT_EQ(r->profile.shards_scanned, 3u);
  EXPECT_EQ(r->profile.shards_unavailable, 1u);

  auto recent = fabric->telemetry()->query_log().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0]->shards_total, 4u);
  EXPECT_EQ(recent[0]->shards_scanned, 3u);
  EXPECT_EQ(recent[0]->shards_pruned, 0u);
}

TEST(TelemetryTest, FailedStatementsAreLoggedAsErrors) {
  auto fabric = MakeFabric();
  fabric->EnableTelemetry();
  auto r = fabric->ExecuteSql("SELECT nope FROM no_such_table");
  ASSERT_FALSE(r.ok());
  obs::WorkloadTelemetry* t = fabric->telemetry();
  EXPECT_EQ(t->statements(), 1u);
  EXPECT_EQ(t->errors(), 1u);
  auto recent = t->query_log().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0]->status, "error");
  EXPECT_FALSE(recent[0]->error.empty());
  auto status = obs::QueryLog::ValidateRecord(recent[0]->ToJson());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// ------------------------------------------------- flight dump on fault

TEST(TelemetryTest, FaultDegradationTriggersFlightRecorderDump) {
  const std::string path =
      ::testing::TempDir() + "telemetry_flight_dump.json";
  std::remove(path.c_str());

  auto fabric = MakeFabric();
  fabric->EnableTelemetry();
  fabric->telemetry()->flight_recorder().set_dump_path(path);
  // Certain-failure gathers: the RM path retries to exhaustion and
  // falls back to the host scan — a degradation incident.
  fabric->ArmFaults(*faults::FaultPlan::Parse("rm.gather:p=1"));

  fabric->memory().ResetState();
  auto degraded = fabric->ExecuteSql(
      "SELECT kind, SUM(amount) FROM events WHERE amount < 9000 "
      "GROUP BY kind",
      {.forced_backend = query::Backend::kRelationalMemory});
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

  obs::WorkloadTelemetry* t = fabric->telemetry();
  EXPECT_GT(t->faults_injected(), 0u);
  EXPECT_EQ(t->degraded_statements(), 1u);
  obs::FlightRecorder& rec = t->flight_recorder();
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(t->dump_failures(), 0u);
  // The ring captured activity even though full tracing was never on.
  EXPECT_FALSE(fabric->tracer().enabled());
  EXPECT_GT(rec.recorded(), 0u);

  // The artifact on disk is a loadable Chrome trace naming the incident.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 20, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  auto doc = obs::Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->at("traceEvents").is_array());
  EXPECT_NE(doc->at("otherData").at("reason").AsString().find("fault"),
            std::string::npos);

  // The query log tells the same story.
  auto recent = t->query_log().Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0]->degraded);
  EXPECT_FALSE(recent[0]->degradation.empty());
  EXPECT_GE(recent[0]->fault_fallbacks, 1u);
  EXPECT_EQ(recent[0]->status, "ok");  // degraded, not failed
}

// ------------------------------------------------------- workload clock

TEST(TelemetryTest, TimeSeriesAdvancesOnWorkloadClock) {
  auto fabric = MakeFabric();
  obs::TelemetryConfig config;
  // Tiny windows so the fixed workload closes several of them.
  config.window_cycles = 20'000;
  fabric->EnableTelemetry(std::move(config));
  const RunOut run = RunWorkload(fabric.get());

  obs::WorkloadTelemetry* t = fabric->telemetry();
  EXPECT_EQ(t->workload_cycles(), run.total_cycles);
  obs::TimeSeries& series = t->timeseries();
  EXPECT_GE(series.windows_closed(), 1u);
  auto windows = series.Windows();
  ASSERT_FALSE(windows.empty());
  uint64_t statements_seen = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(windows[i].index, windows[i - 1].index);
    }
    EXPECT_LE(windows[i].end_cycles, run.total_cycles + 20'000);
    // The bundle's own counters are tracked by default; counter columns
    // are per-window deltas.
    auto it = windows[i].values.find("telemetry.statements");
    ASSERT_NE(it, windows[i].values.end());
    statements_seen += static_cast<uint64_t>(it->second);
  }
  EXPECT_LE(statements_seen, Statements().size());
}

}  // namespace
}  // namespace relfab
