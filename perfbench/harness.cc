#include "perfbench/harness.h"

#include <cstdio>
#include <cstdlib>

#include "core/fabric.h"
#include "engine/query.h"

namespace relfab::perfbench {

namespace {

std::string LayerOf(const char* name) {
  std::string s(name);
  const size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

void RequireUnarmed(Fabric& fabric) {
  if (!fabric.env_faults_status().ok() || fabric.fault_injector() != nullptr) {
    std::fprintf(stderr, "perfbench: fault injection is armed (%s); refusing\n",
                 fabric.env_faults_status().ToString().c_str());
    std::exit(2);
  }
}

std::string Compare(const engine::QueryResult& r, const Answer& want) {
  if (r.aggregates.size() != want.aggregates.size() ||
      r.groups.size() != want.groups.size()) {
    return "result shape differs";
  }
  for (size_t a = 0; a < want.aggregates.size(); ++a) {
    if (!Close(r.aggregates[a], want.aggregates[a])) {
      return "aggregate " + std::to_string(a) + " differs";
    }
  }
  for (size_t g = 0; g < want.groups.size(); ++g) {
    const auto& [key, aggs] = want.groups[g];
    const engine::GroupKey& got_key = r.groups[g].first;
    if (got_key.size != key.size()) return "group key width differs";
    for (size_t k = 0; k < key.size(); ++k) {
      if (got_key.values[k] != key[k]) return "group key differs";
    }
    const std::vector<double>& got = r.groups[g].second;
    if (got.size() != aggs.size()) return "group aggregate count differs";
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (!Close(got[a], aggs[a])) {
        return "group " + std::to_string(g) + " aggregate " +
               std::to_string(a) + " differs";
      }
    }
  }
  return "";
}

std::vector<double> SpanRecorder::DurationsMs(
    const std::string& name,
    const std::function<bool(uint64_t op)>& keep) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (keep && !keep(s.op)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"op\":%llu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace relfab::perfbench
