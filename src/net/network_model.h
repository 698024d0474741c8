#ifndef RELFAB_NET_NETWORK_MODEL_H_
#define RELFAB_NET_NETWORK_MODEL_H_

#include <cstdint>
#include <string_view>

#include "common/statusor.h"
#include "sim/params.h"

namespace relfab::net {

/// What a shard sends its partial result to the coordinator as.
/// Both modes compute the *identical* partial spec on the node — like
/// replicas, ship modes are timing aliases: the wire format changes
/// cycles and bytes, never the answer. kAggs ships merged partial
/// aggregates (Farview-style operator pushdown into the node); kRows
/// ships the matching rows' referenced columns and lets the coordinator
/// aggregate.
enum class ShipMode : uint8_t {
  kAggs = 0,
  kRows = 1,
};

inline std::string_view ShipModeToString(ShipMode mode) {
  switch (mode) {
    case ShipMode::kAggs:
      return "aggs";
    case ShipMode::kRows:
      return "rows";
  }
  return "?";
}

inline StatusOr<ShipMode> ShipModeFromString(std::string_view name) {
  if (name == "aggs") return ShipMode::kAggs;
  if (name == "rows") return ShipMode::kRows;
  return Status::InvalidArgument("unknown ship mode '" + std::string(name) +
                                 "' (rows, aggs)");
}

/// One priced node→coordinator transfer. `serialize_cycles` is CPU work
/// on the producing node (charged to that node's clock);
/// `wire_cycles` is link occupancy (latency per message + bandwidth),
/// charged to the coordinator's serial ingest. Deserialization at the
/// coordinator is priced separately (exec::ShipPricer::Ingest).
struct Transfer {
  uint64_t payload_bytes = 0;
  uint64_t messages = 0;
  double serialize_cycles = 0;
  double wire_cycles = 0;
};

/// Closed-form cycle pricing of the inter-node fabric. Pure arithmetic
/// over (sim::NetworkParams, CostModel serialization fields) — no state,
/// no wall clock — so transfers are a deterministic function of the
/// result shape, independent of host threading. Every transfer sends at
/// least one message (the completion/summary frame), so even an empty
/// shard pays one link latency.
class NetworkModel {
 public:
  NetworkModel(const sim::NetworkParams& params, double serialize_row_cycles,
               double serialize_agg_cycles)
      : params_(params),
        serialize_row_cycles_(serialize_row_cycles),
        serialize_agg_cycles_(serialize_agg_cycles) {}

  /// Messages needed for `payload_bytes` of payload (>= 1).
  uint64_t MessagesFor(uint64_t payload_bytes) const {
    const uint64_t mtu = params_.mtu_bytes == 0 ? 1 : params_.mtu_bytes;
    return payload_bytes == 0 ? 1 : (payload_bytes + mtu - 1) / mtu;
  }

  /// Link occupancy for a payload: per-message latency plus the
  /// bandwidth term over payload + framing.
  double WireCycles(uint64_t payload_bytes, uint64_t messages) const {
    const double total_bytes =
        static_cast<double>(payload_bytes) +
        static_cast<double>(messages) *
            static_cast<double>(params_.message_header_bytes);
    return static_cast<double>(messages) * params_.link_latency_cycles +
           total_bytes / params_.bytes_per_cycle;
  }

  /// Prices shipping `rows` materialized rows of `row_bytes` referenced
  /// bytes each (ship=rows).
  Transfer ShipRows(uint64_t rows, uint32_t row_bytes) const {
    Transfer t;
    t.payload_bytes = rows * row_bytes;
    t.messages = MessagesFor(t.payload_bytes);
    t.serialize_cycles =
        static_cast<double>(rows) * serialize_row_cycles_;
    t.wire_cycles = WireCycles(t.payload_bytes, t.messages);
    return t;
  }

  /// Prices shipping partial aggregates (ship=aggs): `groups` result
  /// rows (1 for a flat aggregate), each carrying `key_bytes` of group
  /// key plus `slots` 8-byte partial values.
  Transfer ShipAggs(uint64_t groups, uint32_t key_bytes,
                    uint64_t slots) const {
    Transfer t;
    t.payload_bytes = groups * (key_bytes + slots * 8);
    t.messages = MessagesFor(t.payload_bytes);
    t.serialize_cycles = static_cast<double>(groups * slots) *
                         serialize_agg_cycles_;
    t.wire_cycles = WireCycles(t.payload_bytes, t.messages);
    return t;
  }

  double serialize_row_cycles() const { return serialize_row_cycles_; }
  double serialize_agg_cycles() const { return serialize_agg_cycles_; }

 private:
  sim::NetworkParams params_;
  double serialize_row_cycles_;
  double serialize_agg_cycles_;
};

}  // namespace relfab::net

#endif  // RELFAB_NET_NETWORK_MODEL_H_
