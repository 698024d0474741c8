#include "engine/query.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace relfab::engine {

std::string_view AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

std::vector<uint32_t> QuerySpec::ReferencedColumns(
    const layout::Schema& schema) const {
  std::vector<uint32_t> cols;
  for (const Predicate& p : predicates) cols.push_back(p.column);
  for (const AggSpec& a : aggregates) {
    if (a.expr >= 0) exprs.CollectColumns(a.expr, &cols);
  }
  for (uint32_t c : group_by) cols.push_back(c);
  for (uint32_t c : projection) cols.push_back(c);
  std::sort(cols.begin(), cols.end(), [&schema](uint32_t a, uint32_t b) {
    return schema.offset(a) < schema.offset(b);
  });
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

Status QuerySpec::Validate(const layout::Schema& schema) const {
  if (aggregates.empty() && projection.empty()) {
    return Status::InvalidArgument(
        "query needs aggregates or a projection list");
  }
  if (!aggregates.empty() && !projection.empty()) {
    return Status::InvalidArgument(
        "query cannot mix aggregates with a raw projection list");
  }
  for (const Predicate& p : predicates) {
    if (p.column >= schema.num_columns()) {
      return Status::OutOfRange("predicate column out of range");
    }
    if (schema.type(p.column) == layout::ColumnType::kChar) {
      return Status::InvalidArgument("predicates require numeric columns");
    }
  }
  for (const AggSpec& a : aggregates) {
    if (a.func != AggFunc::kCount &&
        (a.expr < 0 || static_cast<size_t>(a.expr) >= exprs.size())) {
      return Status::InvalidArgument("aggregate references a bad expression");
    }
  }
  std::vector<uint32_t> check;
  for (const AggSpec& a : aggregates) {
    if (a.expr >= 0) exprs.CollectColumns(a.expr, &check);
  }
  for (uint32_t c : check) {
    if (c >= schema.num_columns()) {
      return Status::OutOfRange("aggregate column out of range");
    }
    if (schema.type(c) == layout::ColumnType::kChar) {
      return Status::InvalidArgument(
          "aggregate expressions require numeric columns");
    }
  }
  if (group_by.size() > 4) {
    return Status::InvalidArgument("at most 4 group-by columns supported");
  }
  for (uint32_t c : group_by) {
    if (c >= schema.num_columns()) {
      return Status::OutOfRange("group-by column out of range");
    }
    if (schema.type(c) == layout::ColumnType::kChar && schema.width(c) > 8) {
      return Status::InvalidArgument(
          "group-by char columns must be at most 8 bytes wide");
    }
    if (schema.type(c) == layout::ColumnType::kDouble) {
      return Status::InvalidArgument(
          "group-by on floating-point columns is not supported");
    }
  }
  for (uint32_t c : projection) {
    if (c >= schema.num_columns()) {
      return Status::OutOfRange("projected column out of range");
    }
  }
  if (group_by.size() > 0 && aggregates.empty()) {
    return Status::InvalidArgument("group-by requires aggregates");
  }
  return Status::Ok();
}

uint32_t QuerySpec::AggOpCount() const {
  uint32_t ops = 0;
  for (const AggSpec& a : aggregates) {
    if (a.expr >= 0) ops += exprs.OpCount(a.expr);
  }
  return ops;
}

namespace {

bool CloseEnough(double a, double b, double rel_tol) {
  const double diff = std::fabs(a - b);
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= rel_tol * std::max(scale, 1.0);
}

}  // namespace

bool QueryResult::SameAnswer(const QueryResult& other, double rel_tol) const {
  if (rows_scanned != other.rows_scanned ||
      rows_matched != other.rows_matched) {
    return false;
  }
  if (aggregates.size() != other.aggregates.size()) return false;
  for (size_t i = 0; i < aggregates.size(); ++i) {
    if (!CloseEnough(aggregates[i], other.aggregates[i], rel_tol)) {
      return false;
    }
  }
  if (groups.size() != other.groups.size()) return false;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!(groups[g].first == other.groups[g].first)) return false;
    if (groups[g].second.size() != other.groups[g].second.size()) return false;
    for (size_t i = 0; i < groups[g].second.size(); ++i) {
      if (!CloseEnough(groups[g].second[i], other.groups[g].second[i],
                       rel_tol)) {
        return false;
      }
    }
  }
  return CloseEnough(projection_checksum, other.projection_checksum, rel_tol);
}

std::string QueryResult::ToString() const {
  std::ostringstream os;
  os << "scanned=" << rows_scanned << " matched=" << rows_matched;
  if (!aggregates.empty()) {
    os << " aggs=[";
    for (size_t i = 0; i < aggregates.size(); ++i) {
      if (i > 0) os << ", ";
      os << aggregates[i];
    }
    os << "]";
  }
  if (!groups.empty()) os << " groups=" << groups.size();
  if (projection_checksum != 0) os << " checksum=" << projection_checksum;
  os << " cycles=" << sim_cycles;
  return os.str();
}

}  // namespace relfab::engine
