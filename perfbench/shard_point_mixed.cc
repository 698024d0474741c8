// shard_point_mixed: one 16-shard x 2-replica `readings` table loaded
// into two fabrics, one single-host and one configured as a 4-node
// cluster, both with workload telemetry on as sql_shell runs it. The
// op stream alternates fabrics. Most statements are shard-key point
// lookups that prune to one shard; the rest are narrow ranges (1-2
// shards) and full fan-out GROUP BYs, a few selective (the planner ships
// rows) and most not (it ships partial aggregates). Each shard is 1024
// rows x 20 B = 20 KiB, inside the simulated 32 KiB L1; the table is
// 320 KiB, inside the 1 MiB L2. Row work is small, so per-statement
// fixed cost dominates: parse/plan, dispatch, fan-out thread spawn, sim
// reset and telemetry. Both ShardScheduler paths (Execute single-host,
// ExecuteDistributed for the cluster) run side by side.
//
// The mix puts the p50 rank inside the point lookups and the p90 rank
// inside one class of one fabric, away from any class boundary. Per 200
// ops (100 a fabric): 130 points (~0.1 ms each on the tuning machine),
// 20 ranges (~0.2 ms), 10 selective fan-outs (~0.9 ms) and 40 broad
// fan-outs (~1.5 ms). Ranges and selective fan-outs are split evenly
// between the fabrics; points and broad fan-outs are not. Points and
// ranges take ranks 0-75%, 65% of all ops being points, so p50 lies among
// the points. The broad fan-outs take ranks 80-100%: 34 on the cluster
// (17% of all ops) and 6 on the single host (3%). Whichever fabric's are
// slower, the p90 rank lies at least 7% of all ops inside the cluster's
// broad fan-outs: below the single host's 3% when those are slower,
// above them when faster. The two fabrics' latencies overlap anyway.

#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "perfbench/harness.h"

namespace relfab::perfbench {
namespace {

constexpr int64_t kShards = 16;
constexpr int64_t kRowsPerShard = 1024;
constexpr int64_t kRows = kShards * kRowsPerShard;
constexpr int64_t kRangeWidth = kRowsPerShard / 2;
constexpr int kHostThreads = 2;
constexpr uint32_t kClusterNodes = 4;
constexpr int kSensors = 64;

// Per 100 ops of each fabric: {single-host, cluster}.
constexpr int kPoints[2] = {79, 51};
constexpr int kRanges[2] = {10, 10};
constexpr int kSelectiveFanouts[2] = {5, 5};
constexpr int kBroadFanouts[2] = {6, 34};
static_assert(kPoints[0] + kRanges[0] + kSelectiveFanouts[0] +
                      kBroadFanouts[0] ==
                  kPoints[1] + kRanges[1] + kSelectiveFanouts[1] +
                      kBroadFanouts[1],
              "the stream alternates fabrics, so both run as many ops");

// Fan-out filters: hum < 5 leaves few rows per shard (the planner ships
// rows), hum < 50 leaves half (it ships partial aggregates).
constexpr int64_t kSelectiveHum = 5;
constexpr int64_t kBroadHum = 50;

enum Class : uint8_t { kPoint, kRange, kSelectiveFanout, kBroadFanout };
const char* const kClassNames[] = {"point", "range", "selective_fanout",
                                   "broad_fanout"};
const char* const kFabricNames[] = {"local", "cluster"};

struct Op {
  int fabric;  // 0 = single-host, 1 = 4-node cluster
  Class cls;
  int64_t a;  // point key, range start or hum bound
  std::string sql;
};

/// Row content is a pure function of (key, salt), so the oracle needs no
/// table scan and shares nothing with the library.
struct Rows {
  int64_t salt;
  int32_t Sensor(int64_t ts) const {
    return static_cast<int32_t>((ts * 7 + salt) % kSensors);
  }
  int32_t Temp(int64_t ts) const {
    return static_cast<int32_t>((ts * 13 + 7 + salt) % 500);
  }
  int32_t Hum(int64_t ts) const {
    return static_cast<int32_t>((ts * 5 + 3 + salt) % 100);
  }
};

bool IsFanout(Class c) { return c == kSelectiveFanout || c == kBroadFanout; }

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

class ShardPointMixed final : public Workload {
 public:
  explicit ShardPointMixed(uint64_t seed)
      : rows_{static_cast<int64_t>(seed % 1000)} {
    Random rng(seed ^ 0x5eedull);
    for (int f = 0; f < 2; ++f) {
      std::vector<Class> classes;
      classes.insert(classes.end(), kPoints[f], kPoint);
      classes.insert(classes.end(), kRanges[f], kRange);
      classes.insert(classes.end(), kSelectiveFanouts[f], kSelectiveFanout);
      classes.insert(classes.end(), kBroadFanouts[f], kBroadFanout);
      Shuffle(&classes, seed * 2 + static_cast<uint64_t>(f));
      for (Class c : classes) {
        Op op{f, c, 0, ""};
        switch (c) {
          case kPoint:
            op.a = static_cast<int64_t>(rng.Uniform(kRows));
            op.sql = "SELECT COUNT(*), SUM(temp) FROM readings WHERE ts = " +
                     std::to_string(op.a);
            break;
          case kRange:
            op.a = static_cast<int64_t>(rng.Uniform(kRows - kRangeWidth));
            op.sql =
                "SELECT COUNT(*), AVG(temp), MAX(hum) FROM readings WHERE "
                "ts >= " +
                std::to_string(op.a) + " AND ts < " +
                std::to_string(op.a + kRangeWidth);
            break;
          case kSelectiveFanout:
          case kBroadFanout:
            op.a = c == kSelectiveFanout ? kSelectiveHum : kBroadHum;
            op.sql =
                "SELECT sensor, COUNT(*), SUM(temp) FROM readings WHERE "
                "hum < " +
                std::to_string(op.a) + " GROUP BY sensor";
            break;
        }
        per_fabric_[f].push_back(std::move(op));
      }
    }
    // Interleave: op 2j runs on the single-host fabric, 2j+1 on the
    // cluster.
    for (size_t j = 0; j < per_fabric_[0].size(); ++j) {
      ops_.push_back(&per_fabric_[0][j]);
      ops_.push_back(&per_fabric_[1][j]);
    }
  }

  ShardPointMixed(const ShardPointMixed&) = delete;
  ShardPointMixed& operator=(const ShardPointMixed&) = delete;

  void Build(SpanRecorder* spans) override {
    for (int f = 0; f < 2; ++f) {
      auto fabric = std::make_unique<Fabric>();
      RequireUnarmed(*fabric);
      fabric->shard_scheduler().set_host_threads(kHostThreads);
      {
        SpanRecorder::Scope span(spans, "obs.enable_telemetry");
        obs::TelemetryConfig config;
        config.session = f == 0 ? "local" : "cluster";
        fabric->EnableTelemetry(std::move(config));
      }
      auto schema = layout::Schema::Create({
          {"ts", layout::ColumnType::kInt64, 0},
          {"sensor", layout::ColumnType::kInt32, 0},
          {"temp", layout::ColumnType::kInt32, 0},
          {"hum", layout::ColumnType::kInt32, 0},
      });
      std::vector<int64_t> splits;
      for (int64_t s = 1; s < kShards; ++s) splits.push_back(s * kRowsPerShard);
      auto table = fabric->CreateShardedTable(
          "readings", std::move(*schema), "ts",
          {.splits = std::move(splits), .replicas = 2});
      if (!table.ok()) Fail(table.status());
      {
        SpanRecorder::Scope span(spans, "layout.load");
        layout::RowBuilder b(&(*table)->schema());
        for (int64_t ts = 0; ts < kRows; ++ts) {
          b.Reset();
          b.AddInt64(ts)
              .AddInt32(rows_.Sensor(ts))
              .AddInt32(rows_.Temp(ts))
              .AddInt32(rows_.Hum(ts));
          (*table)->Append(b.Finish());
        }
      }
      if (f == 1) {
        SpanRecorder::Scope span(spans, "core.configure_cluster");
        net::ClusterConfig cluster;
        cluster.nodes = kClusterNodes;
        Status status = fabric->ConfigureCluster(cluster);
        if (!status.ok()) Fail(status);
      }
      fabrics_[f] = std::move(fabric);
    }
  }

  void ComputeOracle() override {
    for (int f = 0; f < 2; ++f) {
      for (const Op& op : per_fabric_[f]) answers_[&op] = Expected(op);
    }
  }

  size_t RoundSize() const override { return ops_.size(); }
  bool InWarmup(size_t) const override { return true; }
  int HostThreads() const override { return kHostThreads; }
  std::string OpClass(size_t i) const override {
    return std::string(kFabricNames[ops_[i]->fabric]) + "." +
           kClassNames[ops_[i]->cls];
  }

  void Execute(size_t i, SpanRecorder* spans, uint64_t op_id) override {
    const Op& op = *ops_[i];
    Fabric& fabric = *fabrics_[op.fabric];
    if (counting_) Snapshot(fabric, &before_);
    {
      SpanRecorder::Scope span(spans, "sim.reset", op_id);
      fabric.memory().ResetState();
    }
    const bool util = counting_ && IsFanout(op.cls);
    const int64_t cpu0 = util ? ProcessCpuNs() : 0;
    const int64_t wall0 = util ? NowNs() : 0;
    {
      SpanRecorder::Scope span(spans, "core.execute_sql", op_id);
      result_ = fabric.ExecuteSql(op.sql);
    }
    if (util) {
      fanout_cpu_ns_ += ProcessCpuNs() - cpu0;
      fanout_wall_ns_ += NowNs() - wall0;
    }
  }

  OpCheck Check(size_t i) override {
    const Op& op = *ops_[i];
    OpCheck out;
    if (!result_.ok()) {
      out.error = result_.status().ToString();
      return out;
    }
    const engine::QueryResult& r = result_->result;
    out.sim_cycles = r.sim_cycles;
    out.error = r.partial ? "partial answer" : Compare(r, answers_.at(&op));
    out.ok = out.error.empty();
    if (counting_) {
      Counters now;
      Snapshot(*fabrics_[op.fabric], &now);
      totals_.shards_scanned += now.shards_scanned - before_.shards_scanned;
      totals_.net_bytes += now.net_bytes - before_.net_bytes;
      totals_.ship_rows += now.ship_rows - before_.ship_rows;
      totals_.ship_aggs += now.ship_aggs - before_.ship_aggs;
      cycles_ += r.sim_cycles;
      ++counted_ops_;
      if (op.fabric == 1) ++cluster_ops_;
    }
    return out;
  }

  void StartCounting() override { counting_ = true; }

  bool Probe(SpanRecorder* spans) override {
    // Parse + plan alone (EXPLAIN of each statement of a round) and the
    // metrics snapshot telemetry takes once per statement.
    counting_ = false;
    bool ok = true;
    for (const Op* op : ops_) {
      Fabric& fabric = *fabrics_[op->fabric];
      {
        SpanRecorder::Scope span(spans, "query.explain_sql");
        ok = ok && fabric.ExplainSql(op->sql).ok();
      }
      SpanRecorder::Scope span(spans, "obs.collect_metrics");
      fabric.CollectMetrics();
    }
    return ok;
  }

  void ReportLayers(const SpanRecorder& spans, Metrics* out) override {
    const size_t n = ops_.size();
    auto broad_on = [&](int fabric) {
      return [this, n, fabric](uint64_t op) {
        if (op == 0) return false;
        const Op& o = *ops_[OpIndex(op, n)];
        return o.cls == kBroadFanout && o.fabric == fabric;
      };
    };
    const double ops = static_cast<double>(counted_ops_);
    Add(out, "query.parse_plan_us",
        Median(spans.DurationsMs("query.explain_sql")) * 1e3, "us");
    Add(out, "obs.collect_us",
        Median(spans.DurationsMs("obs.collect_metrics")) * 1e3, "us");
    Add(out, "sim.reset_us", Median(spans.DurationsMs("sim.reset")) * 1e3,
        "us");
    Add(out, "exec.fanout_local_ms",
        Median(spans.DurationsMs("core.execute_sql", broad_on(0))), "ms");
    Add(out, "exec.fanout_cluster_ms",
        Median(spans.DurationsMs("core.execute_sql", broad_on(1))), "ms");
    Add(out, "exec.worker_util",
        Ratio(static_cast<double>(fanout_cpu_ns_),
              static_cast<double>(fanout_wall_ns_) * kHostThreads),
        "ratio");
    Add(out, "exec.shards_scanned_per_op",
        Ratio(static_cast<double>(totals_.shards_scanned), ops), "count");
    Add(out, "net.bytes_per_op",
        Ratio(static_cast<double>(totals_.net_bytes),
              static_cast<double>(cluster_ops_)),
        "B");
    Add(out, "net.ship_aggs_share",
        Ratio(static_cast<double>(totals_.ship_aggs),
              static_cast<double>(totals_.ship_rows + totals_.ship_aggs)),
        "ratio");
    Add(out, "sim.cycles_per_op.shard_point_mixed",
        Ratio(static_cast<double>(cycles_), ops), "cycles");
  }

 private:
  struct Counters {
    uint64_t shards_scanned = 0;
    uint64_t net_bytes = 0;
    uint64_t ship_rows = 0;
    uint64_t ship_aggs = 0;
  };

  [[noreturn]] static void Fail(const Status& status) {
    std::fprintf(stderr, "shard_point_mixed set-up failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }

  static void Snapshot(Fabric& fabric, Counters* out) {
    const exec::ShardScheduler& s = fabric.shard_scheduler();
    out->shards_scanned = s.shards_scanned();
    out->net_bytes = s.net_bytes();
    out->ship_rows = s.shards_ship_rows();
    out->ship_aggs = s.shards_ship_aggs();
  }

  Answer Expected(const Op& op) const {
    Answer a;
    switch (op.cls) {
      case kPoint:
        a.aggregates = {1, static_cast<double>(rows_.Temp(op.a))};
        break;
      case kRange: {
        double sum = 0;
        int32_t max = 0;
        for (int64_t ts = op.a; ts < op.a + kRangeWidth; ++ts) {
          sum += rows_.Temp(ts);
          if (ts == op.a || rows_.Hum(ts) > max) max = rows_.Hum(ts);
        }
        a.aggregates = {static_cast<double>(kRangeWidth), sum / kRangeWidth,
                        static_cast<double>(max)};
        break;
      }
      case kSelectiveFanout:
      case kBroadFanout: {
        std::map<int64_t, std::pair<double, double>> groups;
        for (int64_t ts = 0; ts < kRows; ++ts) {
          if (rows_.Hum(ts) >= op.a) continue;
          auto& [count, sum] = groups[rows_.Sensor(ts)];
          count += 1;
          sum += rows_.Temp(ts);
        }
        for (const auto& [sensor, g] : groups) {
          a.groups.push_back({{sensor}, {g.first, g.second}});
        }
        break;
      }
    }
    return a;
  }

  Rows rows_;
  std::vector<Op> per_fabric_[2];
  std::vector<const Op*> ops_;
  std::map<const Op*, Answer> answers_;
  std::unique_ptr<Fabric> fabrics_[2];
  StatusOr<Fabric::SqlResult> result_ = Status::Internal("no op ran");

  bool counting_ = false;
  Counters before_;
  Counters totals_;
  uint64_t counted_ops_ = 0;
  uint64_t cluster_ops_ = 0;
  uint64_t cycles_ = 0;
  int64_t fanout_cpu_ns_ = 0;
  int64_t fanout_wall_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeShardPointMixed(uint64_t seed) {
  return std::make_unique<ShardPointMixed>(seed);
}

}  // namespace relfab::perfbench
