#include "engine/sink.h"

namespace relfab::engine {

QuerySink::QuerySink(const QuerySpec& query, const layout::Schema& schema,
                     sim::MemorySystem* memory, const CostModel& cost)
    : query_(query),
      schema_(schema),
      memory_(memory),
      cost_(cost),
      ops_(query.aggregates.size(), 0),
      flat_(query.aggregates.size()),
      groups_(query.aggregates.size()) {
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    if (query.aggregates[a].expr >= 0) {
      ops_[a] = query.exprs.OpCount(query.aggregates[a].expr);
    }
  }
}

uint64_t QuerySink::RowsOut(uint64_t rows_matched) const {
  if (query_.aggregates.empty()) return rows_matched;
  return query_.group_by.empty() ? 1 : groups_.size();
}

void QuerySink::Finalize(QueryResult* result) const {
  result->projection_checksum = checksum_;
  const size_t n = query_.aggregates.size();
  if (n == 0) return;
  if (query_.group_by.empty()) {
    result->aggregates.resize(n);
    for (size_t a = 0; a < n; ++a) {
      result->aggregates[a] = flat_[a].Final(query_.aggregates[a].func);
    }
    return;
  }
  result->groups.reserve(groups_.size());
  for (const uint32_t g : groups_.KeyOrder()) {
    const AggState* states = groups_.states(g);
    std::vector<double> finals(n);
    for (size_t a = 0; a < n; ++a) {
      finals[a] = states[a].Final(query_.aggregates[a].func);
    }
    result->groups.emplace_back(groups_.key(g), std::move(finals));
  }
}

}  // namespace relfab::engine
