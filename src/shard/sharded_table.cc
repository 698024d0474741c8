#include "shard/sharded_table.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace relfab::shard {

std::string ReplicaName(const std::string& table, uint32_t shard,
                        uint32_t replica) {
  return table + ".shard" + std::to_string(shard) + ".r" +
         std::to_string(replica);
}

StatusOr<ShardedTable> ShardedTable::Create(layout::Schema schema,
                                            uint32_t key_column,
                                            sim::MemorySystem* memory,
                                            ShardedTableOptions options) {
  if (options.replicas < 1) {
    return Status::InvalidArgument(
        "ShardedTableOptions.replicas must be >= 1, got " +
        std::to_string(options.replicas));
  }
  if (key_column >= schema.num_columns()) {
    return Status::OutOfRange("shard key column out of range");
  }
  if (schema.type(key_column) != layout::ColumnType::kInt64) {
    return Status::InvalidArgument("shard key must be an int64 column");
  }
  for (size_t i = 1; i < options.splits.size(); ++i) {
    if (options.splits[i] <= options.splits[i - 1]) {
      return Status::InvalidArgument(
          "ShardedTableOptions.splits must be strictly increasing (splits[" +
          std::to_string(i) + "] = " + std::to_string(options.splits[i]) +
          " <= splits[" + std::to_string(i - 1) +
          "] = " + std::to_string(options.splits[i - 1]) + ")");
    }
  }
  if (memory == nullptr) {
    return Status::InvalidArgument("memory system is required");
  }
  return ShardedTable(std::move(schema), key_column, memory,
                      std::move(options));
}

ShardedTable::ShardedTable(layout::Schema schema, uint32_t key_column,
                           sim::MemorySystem* memory,
                           ShardedTableOptions options)
    : schema_(std::move(schema)),
      key_column_(key_column),
      replicas_(options.replicas),
      placement_(options.placement),
      split_points_(std::move(options.splits)) {
  shards_.reserve(split_points_.size() + 1);
  for (size_t i = 0; i <= split_points_.size(); ++i) {
    shards_.push_back(
        std::make_unique<layout::RowTable>(schema_, memory, 0));
  }
}

uint64_t ShardedTable::num_rows() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->num_rows();
  return total;
}

void ShardedTable::ShardBounds(uint32_t i, int64_t* lo, int64_t* hi) const {
  *lo = i == 0 ? std::numeric_limits<int64_t>::min() : split_points_[i - 1];
  *hi = i == split_points_.size() ? std::numeric_limits<int64_t>::max()
                                  : split_points_[i] - 1;
}

uint32_t ShardedTable::ShardFor(int64_t key) const {
  const auto it =
      std::upper_bound(split_points_.begin(), split_points_.end(), key);
  return static_cast<uint32_t>(it - split_points_.begin());
}

void ShardedTable::Append(const uint8_t* packed_row) {
  int64_t key;
  std::memcpy(&key, packed_row + schema_.offset(key_column_), 8);
  shards_[ShardFor(key)]->AppendRow(packed_row);
}

std::vector<uint32_t> ShardedTable::ShardsForRange(int64_t lo,
                                                   int64_t hi) const {
  std::vector<uint32_t> out;
  if (lo > hi) return out;
  for (uint32_t s = ShardFor(lo); s <= ShardFor(hi); ++s) {
    out.push_back(s);
  }
  return out;
}

StatusOr<std::vector<relmem::EphemeralView>> ShardedTable::ConfigureRange(
    relmem::RmEngine* rm, const relmem::Geometry& base_geometry, int64_t lo,
    int64_t hi) const {
  RELFAB_CHECK(rm != nullptr);
  std::vector<relmem::EphemeralView> views;
  for (uint32_t s : ShardsForRange(lo, hi)) {
    // Shard s covers [shard_lo, shard_hi] (inclusive bounds, open ends).
    int64_t shard_lo, shard_hi;
    ShardBounds(s, &shard_lo, &shard_hi);
    relmem::Geometry g = base_geometry;
    // Residual predicates only where the request range cuts the shard.
    if (lo > shard_lo) {
      g.predicates.push_back(
          relmem::HwPredicate::Int(key_column_, relmem::CompareOp::kGe, lo));
    }
    if (hi < shard_hi) {
      g.predicates.push_back(
          relmem::HwPredicate::Int(key_column_, relmem::CompareOp::kLe, hi));
    }
    RELFAB_ASSIGN_OR_RETURN(relmem::EphemeralView view,
                            rm->Configure(*shards_[s], std::move(g)));
    views.push_back(std::move(view));
  }
  return views;
}

}  // namespace relfab::shard
