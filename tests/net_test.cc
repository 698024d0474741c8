// Tests for the distributed fabric (src/net + the node-aware shard
// scheduler path): NetworkModel cost arithmetic, ClusterConfig
// validation, shard/replica -> node placement math, the shared
// ShipPricer, the planner's ship-rows vs ship-aggs crossover, answer equivalence between
// distributed and single-host execution, the determinism contract
// (answers AND cycles bit-identical at any host thread count, in both
// simulator modes, with a cluster configured), node-kill failover, and
// the net.* observability surface (counters, EXPLAIN ANALYZE profile,
// query log fields).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "exec/shard_scheduler.h"
#include "faults/fault_plan.h"
#include "net/network_model.h"
#include "net/topology.h"
#include "obs/query_log.h"
#include "obs/telemetry.h"
#include "query/executor.h"

namespace relfab {
namespace {

using layout::ColumnType;
using layout::RowBuilder;
using layout::Schema;

constexpr int64_t kRows = 4000;
const std::vector<int64_t> kSplits = {1000, 2000, 3000};

Schema MakeSchema() {
  return *Schema::Create({
      {"k", ColumnType::kInt64, 0},
      {"v", ColumnType::kInt32, 0},
      {"g", ColumnType::kInt32, 0},
  });
}

/// Row content is a pure function of the key so every fabric below
/// holds identical data and answers are directly comparable.
void FillRow(RowBuilder* b, int64_t k) {
  b->Reset();
  b->AddInt64(k)
      .AddInt32(static_cast<int32_t>((k * 7 + 13) % 100))
      .AddInt32(static_cast<int32_t>(k % 5));
}

/// Builds a fabric with "m" range-sharded 4 ways on k (x `replicas`),
/// optionally joined to a `nodes`-node cluster.
std::unique_ptr<Fabric> MakeFabric(uint32_t nodes, uint32_t replicas = 2) {
  auto fabric = std::make_unique<Fabric>();
  auto* sharded =
      fabric
          ->CreateShardedTable("m", MakeSchema(), "k",
                               {.splits = kSplits, .replicas = replicas})
          .value();
  RowBuilder row(&sharded->schema());
  for (int64_t k = 0; k < kRows; ++k) {
    FillRow(&row, k);
    sharded->Append(row.Finish());
  }
  if (nodes > 0) {
    auto status = fabric->ConfigureCluster({.nodes = nodes});
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return fabric;
}

void ExpectSameAnswer(const engine::QueryResult& got,
                      const engine::QueryResult& want) {
  EXPECT_EQ(got.rows_matched, want.rows_matched);
  ASSERT_EQ(got.aggregates.size(), want.aggregates.size());
  for (size_t i = 0; i < got.aggregates.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.aggregates[i], want.aggregates[i]) << "agg " << i;
  }
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t g = 0; g < got.groups.size(); ++g) {
    EXPECT_TRUE(got.groups[g].first == want.groups[g].first) << "group " << g;
    ASSERT_EQ(got.groups[g].second.size(), want.groups[g].second.size());
    for (size_t i = 0; i < got.groups[g].second.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.groups[g].second[i], want.groups[g].second[i])
          << "group " << g << " agg " << i;
    }
  }
  EXPECT_DOUBLE_EQ(got.projection_checksum, want.projection_checksum);
}

// ---------------------------------------------------------------------
// NetworkModel: closed-form cost arithmetic.
// ---------------------------------------------------------------------

sim::NetworkParams TestLink() {
  sim::NetworkParams p;
  p.link_latency_cycles = 1000.0;
  p.bytes_per_cycle = 2.0;
  p.mtu_bytes = 1024;
  p.message_header_bytes = 16;
  return p;
}

TEST(NetworkModelTest, MessagesForCeilsAtMtuAndNeverReturnsZero) {
  net::NetworkModel m(TestLink(), 4.0, 6.0);
  // Every transfer sends at least the completion frame.
  EXPECT_EQ(m.MessagesFor(0), 1u);
  EXPECT_EQ(m.MessagesFor(1), 1u);
  EXPECT_EQ(m.MessagesFor(1024), 1u);
  EXPECT_EQ(m.MessagesFor(1025), 2u);
  EXPECT_EQ(m.MessagesFor(4096), 4u);
  EXPECT_EQ(m.MessagesFor(4097), 5u);
}

TEST(NetworkModelTest, WireCyclesChargesLatencyPerMessagePlusBandwidth) {
  net::NetworkModel m(TestLink(), 4.0, 6.0);
  // 2048 B payload -> 2 messages: 2 latencies plus (payload + 2 headers)
  // over the 2 B/cycle link.
  const double expect = 2 * 1000.0 + (2048.0 + 2 * 16.0) / 2.0;
  EXPECT_DOUBLE_EQ(m.WireCycles(2048, 2), expect);
  // An empty transfer still pays one latency and one header.
  EXPECT_DOUBLE_EQ(m.WireCycles(0, 1), 1000.0 + 16.0 / 2.0);
}

TEST(NetworkModelTest, ShipRowsPricesPayloadAndPerRowSerialization) {
  net::NetworkModel m(TestLink(), 4.0, 6.0);
  const net::Transfer t = m.ShipRows(/*rows=*/100, /*row_bytes=*/12);
  EXPECT_EQ(t.payload_bytes, 1200u);
  EXPECT_EQ(t.messages, 2u);
  EXPECT_DOUBLE_EQ(t.serialize_cycles, 100 * 4.0);
  EXPECT_DOUBLE_EQ(t.wire_cycles, m.WireCycles(1200, 2));
}

TEST(NetworkModelTest, ShipAggsPricesGroupsKeysAndSlots) {
  net::NetworkModel m(TestLink(), 4.0, 6.0);
  // 3 groups x (8 B key + 2 x 8 B partial slots) = 72 B.
  const net::Transfer t =
      m.ShipAggs(/*groups=*/3, /*key_bytes=*/8, /*slots=*/2);
  EXPECT_EQ(t.payload_bytes, 72u);
  EXPECT_EQ(t.messages, 1u);
  EXPECT_DOUBLE_EQ(t.serialize_cycles, 3 * 2 * 6.0);
  EXPECT_DOUBLE_EQ(t.wire_cycles, m.WireCycles(72, 1));
}

// ---------------------------------------------------------------------
// ShipPricer: the one price of a shard's partial, shared by the
// planner's ship-mode choice and the scheduler's charge.
// ---------------------------------------------------------------------

TEST(ShipPricerTest, PricesTransferAndCoordinatorIngestPerShipMode) {
  auto fabric = MakeFabric(/*nodes=*/0);
  auto plan = fabric->ExplainSql("SELECT g, SUM(v), AVG(v) FROM m GROUP BY g");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  engine::CostModel cost;
  cost.net_serialize_row_cycles = 4.0;
  cost.net_serialize_agg_cycles = 6.0;
  cost.agg_update_cycles = 1.5;
  // Referenced columns v + g = 8 B per shipped row; one 8 B group key;
  // SUM + AVG-as-SUM + the hidden COUNT = 3 partial slots.
  const exec::ShipPricer pricer((*fabric->GetShardedTable("m"))->schema(),
                                plan->spec, TestLink(), cost);
  const net::NetworkModel m(TestLink(), 4.0, 6.0);

  const net::Transfer rows = pricer.Ship(net::ShipMode::kRows, 10);
  EXPECT_EQ(rows.payload_bytes, 80u);
  EXPECT_DOUBLE_EQ(rows.serialize_cycles, 10 * 4.0);
  EXPECT_DOUBLE_EQ(rows.wire_cycles, m.WireCycles(80, 1));
  const net::Transfer aggs = pricer.Ship(net::ShipMode::kAggs, 3);
  EXPECT_EQ(aggs.payload_bytes, 3u * (8 + 3 * 8));
  EXPECT_DOUBLE_EQ(aggs.serialize_cycles, 3 * 3 * 6.0);
  EXPECT_DOUBLE_EQ(aggs.wire_cycles, m.WireCycles(96, 1));

  // ship=rows: every row is deserialized, then replayed into 3 slots.
  EXPECT_DOUBLE_EQ(pricer.Ingest(net::ShipMode::kRows, 10),
                   10 * (4.0 + 3 * 1.5));
  // ship=aggs: every shipped value is deserialized and merged once.
  EXPECT_DOUBLE_EQ(pricer.Ingest(net::ShipMode::kAggs, 3),
                   3 * 3 * (6.0 + 1.5));
  // The planner prices fractional estimates.
  EXPECT_DOUBLE_EQ(pricer.Ingest(net::ShipMode::kRows, 2.5), 21.25);
  EXPECT_DOUBLE_EQ(pricer.Ingest(net::ShipMode::kAggs, 0.5), 11.25);
}

// ---------------------------------------------------------------------
// Topology: config validation and placement math.
// ---------------------------------------------------------------------

TEST(TopologyTest, MakeValidatesClusterConfig) {
  EXPECT_EQ(net::Topology::Make({.nodes = 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::Topology::Make({.nodes = 2000}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::Topology::Make(
                {.nodes = 2, .network = {.bytes_per_cycle = 0.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      net::Topology::Make({.nodes = 2, .network = {.mtu_bytes = 32}})
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  auto t = net::Topology::Make({.nodes = 3});
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_TRUE(t->enabled());
  EXPECT_EQ(t->nodes(), 3u);
  // A default-constructed topology is disabled (single-host mode).
  EXPECT_FALSE(net::Topology().enabled());
}

TEST(TopologyTest, RoundRobinPlacementStripesReplicasAcrossNodes) {
  const net::Topology t = *net::Topology::Make({.nodes = 3});
  // Replica j of shard i lands on (i + j) mod N.
  EXPECT_EQ(t.NodeFor(0, 0, 4, net::Placement::kRoundRobin), 0u);
  EXPECT_EQ(t.NodeFor(0, 1, 4, net::Placement::kRoundRobin), 1u);
  EXPECT_EQ(t.NodeFor(1, 0, 4, net::Placement::kRoundRobin), 1u);
  EXPECT_EQ(t.NodeFor(2, 2, 4, net::Placement::kRoundRobin), 1u);
  EXPECT_EQ(t.NodeFor(3, 0, 4, net::Placement::kRoundRobin), 0u);
  // A shard's replicas always sit on distinct nodes (up to N).
  for (uint32_t shard = 0; shard < 4; ++shard) {
    EXPECT_NE(t.NodeFor(shard, 0, 4, net::Placement::kRoundRobin),
              t.NodeFor(shard, 1, 4, net::Placement::kRoundRobin));
  }
}

TEST(TopologyTest, BlockPlacementKeepsAdjacentShardsCoLocated) {
  const net::Topology t = *net::Topology::Make({.nodes = 2});
  // 4 shards over 2 nodes: primaries are 0,0,1,1 (floor(i*N/S)).
  EXPECT_EQ(t.NodeFor(0, 0, 4, net::Placement::kBlock), 0u);
  EXPECT_EQ(t.NodeFor(1, 0, 4, net::Placement::kBlock), 0u);
  EXPECT_EQ(t.NodeFor(2, 0, 4, net::Placement::kBlock), 1u);
  EXPECT_EQ(t.NodeFor(3, 0, 4, net::Placement::kBlock), 1u);
  // Replicas step to the next node.
  EXPECT_EQ(t.NodeFor(0, 1, 4, net::Placement::kBlock), 1u);
  EXPECT_EQ(t.NodeFor(2, 1, 4, net::Placement::kBlock), 0u);
  EXPECT_EQ(net::Topology::NodeName(0), "node0");
  EXPECT_EQ(net::Topology::NodeName(7), "node7");
}

// ---------------------------------------------------------------------
// Planner: ship-mode choice and the forced_ship override.
// ---------------------------------------------------------------------

class NetPlanTest : public ::testing::Test {
 protected:
  NetPlanTest() { fabric_ = MakeFabric(/*nodes=*/3); }

  std::vector<net::ShipMode> PlannedShip(const std::string& sql) {
    auto plan = fabric_->ExplainSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    if (!plan.ok()) return {};
    EXPECT_TRUE(plan->shards.distributed) << sql;
    EXPECT_EQ(plan->shards.nodes, 3u) << sql;
    EXPECT_EQ(plan->shards.ship.size(), plan->shards.shard_ids.size()) << sql;
    return plan->shards.ship;
  }

  std::unique_ptr<Fabric> fabric_;
};

TEST_F(NetPlanTest, FlatAggregateShipsPartialAggregates) {
  // One flat partial (a handful of bytes) always beats shipping every
  // matching row.
  for (const net::ShipMode mode :
       PlannedShip("SELECT COUNT(*), SUM(v) FROM m")) {
    EXPECT_EQ(mode, net::ShipMode::kAggs);
  }
}

TEST_F(NetPlanTest, GroupByShardKeyShipsRows) {
  // Grouped by the (unique-ish) shard key, every matching row becomes
  // its own group; the agg payload (key + AVG's SUM/COUNT slots) is
  // wider than the single referenced column, so shipping rows wins.
  const auto ship = PlannedShip("SELECT k, AVG(v) FROM m GROUP BY k");
  ASSERT_FALSE(ship.empty());
  for (const net::ShipMode mode : ship) {
    EXPECT_EQ(mode, net::ShipMode::kRows);
  }
}

TEST_F(NetPlanTest, ProjectionOnlyQueriesAlwaysShipRows) {
  // No aggregates -> there is no partial to ship; rows are the only
  // wire format.
  const auto ship = PlannedShip("SELECT v FROM m WHERE k < 100");
  ASSERT_FALSE(ship.empty());
  for (const net::ShipMode mode : ship) {
    EXPECT_EQ(mode, net::ShipMode::kRows);
  }
}

TEST_F(NetPlanTest, ExplainNamesTheClusterAndShipSplit) {
  auto plan = fabric_->ExplainSql("SELECT COUNT(*) FROM m");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explanation.find("nodes=3"), std::string::npos)
      << plan->explanation;
  EXPECT_NE(plan->explanation.find("ship={"), std::string::npos)
      << plan->explanation;
}

TEST_F(NetPlanTest, ForcedShipOverridesEveryShard) {
  for (const net::ShipMode forced :
       {net::ShipMode::kRows, net::ShipMode::kAggs}) {
    auto plan = fabric_->ExplainSql("SELECT COUNT(*), SUM(v) FROM m",
                                    {.forced_ship = forced});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const net::ShipMode mode : plan->shards.ship) {
      EXPECT_EQ(mode, forced);
    }
    EXPECT_NE(plan->explanation.find("ship forced"), std::string::npos);
  }
}

TEST_F(NetPlanTest, ForcedShipIsATimingAliasNotAnAnswerChange) {
  const std::string sql =
      "SELECT g, COUNT(*), SUM(v), AVG(v) FROM m WHERE v < 40 GROUP BY g";
  auto chosen = fabric_->ExecuteSql(sql);
  auto rows = fabric_->ExecuteSql(sql, {.forced_ship = net::ShipMode::kRows});
  auto aggs = fabric_->ExecuteSql(sql, {.forced_ship = net::ShipMode::kAggs});
  ASSERT_TRUE(chosen.ok() && rows.ok() && aggs.ok());
  ExpectSameAnswer(rows->result, chosen->result);
  ExpectSameAnswer(aggs->result, chosen->result);
}

TEST(NetForcedShipTest, ForcedShipWithoutAClusterIsInvalid) {
  auto fabric = MakeFabric(/*nodes=*/0);
  auto r = fabric->ExecuteSql("SELECT COUNT(*) FROM m",
                              {.forced_ship = net::ShipMode::kRows});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("ConfigureCluster"), std::string::npos);
}

TEST(NetForcedShipTest, ForcedShipOnAnUnshardedTableIsInvalid) {
  Fabric fabric;
  auto* flat = fabric.CreateTable("flat", MakeSchema()).value();
  RowBuilder row(&flat->schema());
  for (int64_t k = 0; k < 100; ++k) {
    FillRow(&row, k);
    flat->AppendRow(row.Finish());
  }
  ASSERT_TRUE(fabric.ConfigureCluster({.nodes = 2}).ok());
  auto r = fabric.ExecuteSql("SELECT COUNT(*) FROM flat",
                             {.forced_ship = net::ShipMode::kAggs});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Execution: answer equivalence, determinism, failover, observability.
// ---------------------------------------------------------------------

const std::vector<std::string> kWorkload = {
    "SELECT COUNT(*), SUM(v) FROM m",
    "SELECT COUNT(*), SUM(v) FROM m WHERE k < 1000",
    "SELECT g, COUNT(*), AVG(v) FROM m WHERE v < 40 GROUP BY g",
    "SELECT v FROM m WHERE k >= 3500",
    "SELECT MAX(v), MIN(v) FROM m WHERE k >= 1000 AND k < 3000",
};

TEST(NetExecTest, DistributedAnswersMatchSingleHost) {
  auto single = MakeFabric(/*nodes=*/0);
  auto cluster = MakeFabric(/*nodes=*/3);
  for (const std::string& sql : kWorkload) {
    SCOPED_TRACE(sql);
    auto want = single->ExecuteSql(sql);
    auto got = cluster->ExecuteSql(sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameAnswer(got->result, want->result);
    // The network is not free: a distributed fan-out always costs more
    // cycles than the same fan-out on one host.
    EXPECT_GT(got->result.sim_cycles, want->result.sim_cycles) << sql;
  }
}

/// Runs the workload on a fresh 3-node cluster and returns
/// (answers, cycles, EXPLAIN ANALYZE profiles) for the determinism pins.
/// The simulator mode is chosen via RELFAB_SIM_FAST_PATH before any rig
/// is built so the rigs inherit it.
struct ClusterRun {
  std::vector<engine::QueryResult> results;
  std::vector<obs::QueryProfile> profiles;
};

ClusterRun RunCluster(const char* fast_path, int host_threads) {
  setenv("RELFAB_SIM_FAST_PATH", fast_path, /*overwrite=*/1);
  auto fabric = MakeFabric(/*nodes=*/3);
  fabric->shard_scheduler().set_host_threads(host_threads);
  ClusterRun out;
  for (const std::string& sql : kWorkload) {
    auto r = fabric->ExecuteSql(sql, {.analyze = true});
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (r.ok()) {
      out.results.push_back(std::move(r->result));
      out.profiles.push_back(std::move(r->profile));
    }
  }
  unsetenv("RELFAB_SIM_FAST_PATH");
  return out;
}

TEST(NetExecTest, AnswersAndCyclesBitIdenticalAcrossThreadsAndSimModes) {
  const ClusterRun baseline = RunCluster("1", 1);
  ASSERT_EQ(baseline.results.size(), kWorkload.size());
  // 8 host workers against 3 nodes: fan-outs use more host threads than
  // there are simulated nodes, and nothing simulated may notice.
  for (const char* fast : {"1", "0"}) {
    for (const int host_threads : {1, 4, 8}) {
      if (fast[0] == '1' && host_threads == 1) continue;  // the baseline
      SCOPED_TRACE(std::string("fast_path=") + fast + " host_threads=" +
                   std::to_string(host_threads));
      const ClusterRun run = RunCluster(fast, host_threads);
      ASSERT_EQ(run.results.size(), baseline.results.size());
      for (size_t i = 0; i < run.results.size(); ++i) {
        SCOPED_TRACE(kWorkload[i]);
        ExpectSameAnswer(run.results[i], baseline.results[i]);
        EXPECT_EQ(run.results[i].sim_cycles, baseline.results[i].sim_cycles);
        const std::vector<obs::OpStats>& ops = run.profiles[i].ops;
        const std::vector<obs::OpStats>& want = baseline.profiles[i].ops;
        ASSERT_EQ(ops.size(), want.size());
        for (size_t o = 0; o < ops.size(); ++o) {
          EXPECT_EQ(ops[o].name, want[o].name);
          EXPECT_EQ(ops[o].cpu_cycles, want[o].cpu_cycles) << ops[o].name;
        }
      }
    }
  }
}

TEST(NetExecTest, NodeKillFailsOverToReplicasOnSurvivingNodes) {
  // 3 replicas on 3 nodes puts a replica of every shard on every node:
  // queries answer until the whole cluster is dead. Kill schedules are
  // a deterministic function of (plan, workload), so scanning a fixed
  // seed list reliably finds a schedule with deaths but a survivor —
  // and every statement that answers (under any schedule) must be
  // bit-identical to the fault-free run: failover is invisible except
  // in cycles and health state.
  auto reference = MakeFabric(/*nodes=*/3, /*replicas=*/3);
  bool found_failover = false;
  for (const int seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto killed = MakeFabric(/*nodes=*/3, /*replicas=*/3);
    killed->ArmFaults(*faults::FaultPlan::Parse(
        "node.kill:p=0.05;seed=" + std::to_string(seed)));
    bool all_ok = true;
    for (int round = 0; round < 3 && all_ok; ++round) {
      for (const std::string& sql : kWorkload) {
        SCOPED_TRACE(sql);
        auto want = reference->ExecuteSql(sql);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = killed->ExecuteSql(sql);
        if (!got.ok()) {
          // Only a fully-dead cluster may refuse to answer.
          EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
          all_ok = false;
          break;
        }
        ExpectSameAnswer(got->result, want->result);
      }
    }
    size_t dead_nodes = 0;
    for (uint32_t n = 0; n < 3; ++n) {
      if (!killed->health().alive(net::Topology::NodeName(n))) ++dead_nodes;
    }
    if (all_ok && dead_nodes > 0 && dead_nodes < 3) found_failover = true;
  }
  EXPECT_TRUE(found_failover)
      << "no seed produced a node death with a surviving cluster";
}

TEST(NetExecTest, AllNodesDeadIsUnavailableUnlessPartialAllowed) {
  auto fabric = MakeFabric(/*nodes=*/3, /*replicas=*/2);
  // p=1: the first serving attempt on each node kills it, and every
  // failover lands on another dying node — the cluster is gone.
  fabric->ArmFaults(*faults::FaultPlan::Parse("node.kill:p=1;seed=1"));
  auto r = fabric->ExecuteSql("SELECT COUNT(*) FROM m");
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().ToString().find("dead"), std::string::npos)
      << r.status().ToString();

  auto partial = fabric->ExecuteSql("SELECT COUNT(*) FROM m",
                                    {.allow_partial = true});
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->result.partial);
}

TEST(NetExecTest, PlanTimeAndSelectionTimeUnavailableReadTheSame) {
  // Shard 0's replicas sit on node0 and node1. Whether the planner sees
  // them dead or replica selection kills them, the statement fails with
  // one kUnavailable text.
  const std::string sql = "SELECT COUNT(*) FROM m WHERE k < 1000";
  const struct {
    std::vector<std::string> dead;
    std::string kill;
  } cases[] = {{{"m.shard0.r0", "m.shard0.r1"}, "shard.kill:p=1"},
               {{"node0", "node1"}, "node.kill:p=1;seed=1"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.kill);
    auto planned = MakeFabric(/*nodes=*/3, /*replicas=*/2);
    for (const std::string& name : c.dead) {
      planned->health().MarkDead(name, "test kill", 0);
    }
    auto at_plan = planned->ExecuteSql(sql);
    ASSERT_EQ(at_plan.status().code(), StatusCode::kUnavailable);

    auto drawn = MakeFabric(/*nodes=*/3, /*replicas=*/2);
    drawn->ArmFaults(*faults::FaultPlan::Parse(c.kill));
    auto at_selection = drawn->ExecuteSql(sql);
    ASSERT_EQ(at_selection.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(drawn->health().deaths().size(), 2u);
    EXPECT_EQ(at_selection.status().ToString(), at_plan.status().ToString());
  }
}

TEST(NetExecTest, ProfileAndCountersCarryTheNetworkStory) {
  auto fabric = MakeFabric(/*nodes=*/3);
  auto r = fabric->ExecuteSql("SELECT COUNT(*), SUM(v) FROM m",
                              {.analyze = true});
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const obs::QueryProfile& prof = r->profile;
  EXPECT_EQ(prof.nodes, 3u);
  EXPECT_GT(prof.net_bytes, 0u);
  EXPECT_GT(prof.net_messages, 0u);
  EXPECT_EQ(prof.shards_ship_rows + prof.shards_ship_aggs, 4u);
  const std::string table = prof.ToTable();
  EXPECT_NE(table.find("cluster: nodes=3"), std::string::npos) << table;
  EXPECT_NE(table.find("ship=aggs"), std::string::npos) << table;
  EXPECT_NE(table.find("NetMerge[nodes=3]"), std::string::npos) << table;

  obs::Registry& metrics = fabric->CollectMetrics();
  EXPECT_EQ(metrics.counter("net.bytes")->value(),
            static_cast<double>(prof.net_bytes));
  EXPECT_EQ(metrics.counter("net.messages")->value(),
            static_cast<double>(prof.net_messages));
  EXPECT_EQ(metrics.counter("net.ship.aggs")->value(),
            static_cast<double>(prof.shards_ship_aggs));
  // Per-node byte counters exist for every node and sum to the total.
  double node_bytes = 0;
  for (uint32_t n = 0; n < 3; ++n) {
    node_bytes +=
        metrics.counter("net." + net::Topology::NodeName(n) + ".bytes")
            ->value();
  }
  EXPECT_EQ(node_bytes, static_cast<double>(prof.net_bytes));
}

TEST(NetExecTest, QueryLogRecordsNetFieldsWithAValidSchema) {
  auto fabric = MakeFabric(/*nodes=*/3);
  obs::WorkloadTelemetry& telemetry = fabric->EnableTelemetry({});
  ASSERT_TRUE(fabric->ExecuteSql("SELECT COUNT(*), SUM(v) FROM m").ok());
  ASSERT_TRUE(
      fabric->ExecuteSql("SELECT v FROM m WHERE k < 100").ok());

  auto recent = telemetry.query_log().Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_GT(recent[0]->net_bytes, 0u);
  EXPECT_EQ(recent[0]->shards_ship_aggs, 4u);
  EXPECT_EQ(recent[0]->shards_ship_rows, 0u);
  EXPECT_GT(recent[1]->shards_ship_rows, 0u);
  for (const obs::QueryLogRecord* rec : recent) {
    auto status = obs::QueryLog::ValidateRecord(rec->ToJson());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

}  // namespace
}  // namespace relfab
