#ifndef RELFAB_ENGINE_QUERY_H_
#define RELFAB_ENGINE_QUERY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/expr.h"
#include "layout/schema.h"

namespace relfab::engine {

enum class AggFunc : uint8_t { kCount, kSum, kMin, kMax, kAvg };

std::string_view AggFuncToString(AggFunc func);

/// One output aggregate: func applied to an ExprPool node (ignored for
/// kCount).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  int32_t expr = -1;
};

/// A (restricted) analytical query: conjunctive predicates, then either
/// aggregation (optionally grouped) or pure projection. This is the query
/// family of the paper's evaluation: projectivity/selectivity sweeps and
/// TPC-H Q1/Q6.
struct QuerySpec {
  ExprPool exprs;
  std::vector<Predicate> predicates;
  std::vector<AggSpec> aggregates;
  /// Group-key columns (integer, date or char<=8 columns).
  std::vector<uint32_t> group_by;
  /// For aggregate-free queries: columns to project; the engines fold the
  /// projected values into a checksum so results stay comparable without
  /// materializing output.
  std::vector<uint32_t> projection;

  /// All distinct columns the query touches, in schema-offset order.
  std::vector<uint32_t> ReferencedColumns(const layout::Schema& schema) const;

  /// Sanity-checks column indices and group-key types.
  Status Validate(const layout::Schema& schema) const;

  /// Total arithmetic ops across aggregate expressions (cost accounting).
  uint32_t AggOpCount() const;
};

/// Group key: up to 4 packed int64 values (char keys <= 8 bytes pack into
/// one value).
struct GroupKey {
  std::array<int64_t, 4> values{};
  uint32_t size = 0;

  friend bool operator==(const GroupKey& a, const GroupKey& b) {
    if (a.size != b.size) return false;
    for (uint32_t i = 0; i < a.size; ++i) {
      if (a.values[i] != b.values[i]) return false;
    }
    return true;
  }
  friend bool operator<(const GroupKey& a, const GroupKey& b) {
    if (a.size != b.size) return a.size < b.size;
    for (uint32_t i = 0; i < a.size; ++i) {
      if (a.values[i] != b.values[i]) return a.values[i] < b.values[i];
    }
    return false;
  }
};

/// Result of executing a QuerySpec. All three engines produce identical
/// functional results for the same query; only the simulated cycles
/// differ.
struct QueryResult {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  /// Ungrouped aggregate values, one per AggSpec (kAvg already divided).
  std::vector<double> aggregates;
  /// Grouped results, sorted by key.
  std::vector<std::pair<GroupKey, std::vector<double>>> groups;
  /// Order-independent checksum for pure-projection queries.
  double projection_checksum = 0;
  /// Simulated elapsed cycles for the execution (filled by the engine).
  uint64_t sim_cycles = 0;
  /// True when shards with no live replica were skipped under
  /// QueryOptions::allow_partial — the answer covers only the surviving
  /// shards. Never set on the default (fail-with-kUnavailable) path.
  bool partial = false;

  /// Functional equality (ignores sim_cycles); doubles compared with a
  /// relative tolerance to absorb summation-order differences.
  bool SameAnswer(const QueryResult& other, double rel_tol = 1e-9) const;

  std::string ToString() const;
};

/// Running state for one aggregate.
struct AggState {
  double sum = 0;
  double min = 0;
  double max = 0;
  uint64_t count = 0;

  void Update(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    ++count;
  }

  double Final(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return static_cast<double>(count);
      case AggFunc::kSum:
        return sum;
      case AggFunc::kMin:
        return count == 0 ? 0 : min;
      case AggFunc::kMax:
        return count == 0 ? 0 : max;
      case AggFunc::kAvg:
        return count == 0 ? 0 : sum / static_cast<double>(count);
    }
    return 0;
  }
};

/// Hash of a group key: a pure function of `size` and the packed values
/// (no std::hash, no addresses), so a table's probe sequences and growth
/// repeat on every run and host.
struct GroupKeyHash {
  uint64_t operator()(const GroupKey& key) const {
    uint64_t h = key.size;
    for (uint32_t i = 0; i < key.size; ++i) {
      // splitmix64 finalizer over the running hash and the next value.
      h ^= static_cast<uint64_t>(key.values[i]) + 0x9e3779b97f4a7c15ull;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
      h ^= h >> 31;
    }
    return h;
  }
};

/// Flat group-by table from GroupKey to `width` states per group: open
/// addressing with linear probing over a power-of-two slot array that
/// grows at load 1/2, with the keys and states of the groups stored
/// contiguously in insertion order. Finding an existing group allocates
/// nothing. Output order comes from KeyOrder(), which depends only on the
/// keys, so results are deterministic whatever the hash or the insertion
/// order.
template <typename State, typename Hash = GroupKeyHash>
class GroupTable {
 public:
  explicit GroupTable(size_t width) : width_(width) {}

  /// Returns the states of `key`'s group, appending a group of
  /// value-initialized states if the key is new (`*inserted` says which).
  /// The pointer is valid until the next insertion.
  State* FindOrInsert(const GroupKey& key, bool* inserted = nullptr) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash()(key) & mask;; s = (s + 1) & mask) {
      const uint32_t g = slots_[s];
      if (g == kEmpty) {
        slots_[s] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        states_.resize(states_.size() + width_);
        if (inserted != nullptr) *inserted = true;
        return states_.data() + states_.size() - width_;
      }
      if (keys_[g] == key) {
        if (inserted != nullptr) *inserted = false;
        return states_.data() + g * width_;
      }
    }
  }

  size_t size() const { return keys_.size(); }
  const GroupKey& key(size_t group) const { return keys_[group]; }
  const State* states(size_t group) const {
    return states_.data() + group * width_;
  }

  /// Group indices in ascending key order (GroupKey::operator<).
  std::vector<uint32_t> KeyOrder() const {
    std::vector<uint32_t> order(keys_.size());
    for (size_t g = 0; g < order.size(); ++g) {
      order[g] = static_cast<uint32_t>(g);
    }
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      return keys_[a] < keys_[b];
    });
    return order;
  }

 private:
  static constexpr uint32_t kEmpty = ~0u;

  void Grow() {
    slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kEmpty);
    const size_t mask = slots_.size() - 1;
    for (size_t g = 0; g < keys_.size(); ++g) {
      size_t s = Hash()(keys_[g]) & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = static_cast<uint32_t>(g);
    }
  }

  size_t width_;
  std::vector<uint32_t> slots_;  // group index per slot, kEmpty if free
  std::vector<GroupKey> keys_;   // per group, insertion order
  std::vector<State> states_;    // width_ per group, insertion order
};

}  // namespace relfab::engine

#endif  // RELFAB_ENGINE_QUERY_H_
