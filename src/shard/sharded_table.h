#ifndef RELFAB_SHARD_SHARDED_TABLE_H_
#define RELFAB_SHARD_SHARDED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "layout/row_table.h"
#include "layout/schema.h"
#include "net/topology.h"
#include "relmem/ephemeral.h"
#include "relmem/rm_engine.h"
#include "sim/memory_system.h"

namespace relfab::shard {

/// Construction options for a sharded table, designated-initializer
/// friendly so call sites read as configuration, not a positional tail:
///
///   fabric.CreateShardedTable("m", schema, "k",
///                             {.splits = {1000, 2000}, .replicas = 2});
///
/// Validation is structured: every violated constraint is a
/// kInvalidArgument naming the offending field.
struct ShardedTableOptions {
  /// Strictly increasing split points; n points create n+1 shards,
  /// shard i covering [splits[i-1], splits[i]) with open ends.
  std::vector<int64_t> splits;
  /// Replication factor per shard (>= 1): timing-alias replicas the
  /// failure-domain layer can kill and the scheduler fails over across.
  uint32_t replicas = 1;
  /// How shards/replicas map onto cluster nodes when a cluster is
  /// configured (Fabric::ConfigureCluster); ignored single-host.
  net::Placement placement = net::Placement::kRoundRobin;
};

/// Failure-domain component name of replica `replica` of shard `shard`
/// of the catalog table `table`: "<table>.shard<i>.r<j>". The scheduler,
/// the planner and the cluster description all name replicas this way.
std::string ReplicaName(const std::string& table, uint32_t shard,
                        uint32_t replica);

/// Range-sharded relation (paper §III-A): horizontal partitioning is a
/// physical-design-time decision that Relational Fabric composes with —
/// "the data system can request the desired column group on a sharding
/// key range, and the Relational Fabric will directly return the
/// corresponding data". Each shard is an independent row-oriented base
/// table; vertical partitioning within a shard stays on-the-fly.
///
/// Shard i covers keys in [split[i-1], split[i]) with open ends at the
/// extremes; the shard key must be an int64 column.
class ShardedTable {
 public:
  /// Builds a sharded table from `options` (see ShardedTableOptions).
  /// Replicas are *timing aliases* of the shard's single RowTable — the
  /// simulator has one copy of the data, and replica j of shard i is the
  /// named serving endpoint "<table>.shard<i>.r<j>" the scheduler picks
  /// (and the failure-domain layer can kill) independently. Replicating
  /// data physically would only duplicate bit-identical scans; the
  /// availability semantics live entirely in replica selection.
  static StatusOr<ShardedTable> Create(layout::Schema schema,
                                       uint32_t key_column,
                                       sim::MemorySystem* memory,
                                       ShardedTableOptions options);

  ShardedTable(ShardedTable&&) = default;
  ShardedTable& operator=(ShardedTable&&) = default;

  const layout::Schema& schema() const { return schema_; }
  uint32_t key_column() const { return key_column_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Replication factor (timing-alias replicas per shard, >= 1).
  uint32_t num_replicas() const { return replicas_; }
  /// Replica → node mapping policy (consulted by net::Topology::NodeFor
  /// when a cluster is configured).
  net::Placement placement() const { return placement_; }
  const layout::RowTable& shard(uint32_t i) const { return *shards_[i]; }
  uint64_t num_rows() const;

  /// Shard that owns `key`.
  uint32_t ShardFor(int64_t key) const;

  /// Inclusive key span [*lo, *hi] shard `i` covers (int64 extremes at
  /// the open ends). The planner's ship-mode estimates use this to turn
  /// a WHERE-clause key range into a per-shard selectivity fraction.
  void ShardBounds(uint32_t i, int64_t* lo, int64_t* hi) const;

  /// Routes a packed row to its shard by the embedded key.
  void Append(const uint8_t* packed_row);

  /// Shards intersecting the key range [lo, hi] (pruning).
  std::vector<uint32_t> ShardsForRange(int64_t lo, int64_t hi) const;

  /// One ephemeral view per shard intersecting [lo, hi]: inner shards
  /// are shipped whole; boundary shards get residual key predicates
  /// pushed into the fabric. Scanning the returned views in order yields
  /// exactly the rows with key in [lo, hi] (shard-major order).
  StatusOr<std::vector<relmem::EphemeralView>> ConfigureRange(
      relmem::RmEngine* rm, const relmem::Geometry& base_geometry,
      int64_t lo, int64_t hi) const;

 private:
  ShardedTable(layout::Schema schema, uint32_t key_column,
               sim::MemorySystem* memory, ShardedTableOptions options);

  layout::Schema schema_;
  uint32_t key_column_;
  uint32_t replicas_;
  net::Placement placement_;
  std::vector<int64_t> split_points_;
  std::vector<std::unique_ptr<layout::RowTable>> shards_;
};

}  // namespace relfab::shard

#endif  // RELFAB_SHARD_SHARDED_TABLE_H_
