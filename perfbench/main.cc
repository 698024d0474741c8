// relfab_perf: host-cost benchmark driver. One closed loop, one client,
// one op in flight.
//
//   relfab_perf --workload <fig5_scan|tpch_sql|shard_point_mixed>
//               --seed <n> --seconds <s> --trace <0|1>
//               [--pin-seed <n>] [--expect-round-cycles <workload>=<n>]...
//               [--spans-dir <dir>]
//
// --trace 0 (measured run): sets the workload up 15 times and reports
// the median set-up time, then replays the workload's seeded op stream
// in whole rounds until --seconds have passed (and at least 120 ops ran)
// and reports the end-to-end metrics. Times are normalised to the
// calibration kernel's reference speed (calibration.h); the measured
// values are printed on the line before the result.
//
// --trace 1 (traced run): profiles all three workloads, --workload
// first, each for a third of --seconds, alternating untraced rounds with
// rounds that record host-time spans around every public call, then the
// probe calls that are not ops. Reports the per-layer metrics, each
// layer's self time and the tracing overhead, and writes the spans as
// Chrome trace JSON into --spans-dir.
//
// Every op's answer is checked against a host-side oracle, and every
// round must repeat the first round's simulated cycles exactly. With
// --expect-round-cycles, each process first pins the simulated cycles:
// untimed, it builds the workload from --pin-seed, runs one round and
// compares the round's summed cycles with the stored count. Mismatches
// and non-OK statuses count as failed ops; a pin mismatch fails every op.
// The last stdout line is the JSON result.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "perfbench/calibration.h"
#include "perfbench/harness.h"
#include "sim/memory_system.h"

namespace relfab::perfbench {
namespace {

constexpr int kSetupRepeats = 15;
constexpr uint64_t kMinOps = 120;  // >= 12 samples beyond p90
constexpr int64_t kCalibrateEveryNs = 100'000'000;
const char* const kWorkloads[] = {"fig5_scan", "tpch_sql",
                                  "shard_point_mixed"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Seed the stored cycle counts were taken with.
  uint64_t pin_seed = 1;
  /// Stored summed cycles of one round at pin_seed, by workload.
  std::map<std::string, uint64_t> expected_round_cycles;
  std::string spans_dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "relfab_perf: %s\nusage: relfab_perf --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--pin-seed <n>] "
               "[--expect-round-cycles <workload>=<n>]... "
               "[--spans-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--pin-seed") {
      args.pin_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--expect-round-cycles") {
      // <workload>=<cycles>; repeatable.
      const char* eq = std::strchr(value, '=');
      if (eq == nullptr) Usage("--expect-round-cycles takes <workload>=<n>");
      args.expected_round_cycles[std::string(value, eq)] =
          std::strtoull(eq + 1, nullptr, 10);
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || args.workload == w;
  if (!known) Usage("unknown --workload");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "fig5_scan") return MakeFig5Scan(seed);
  if (name == "tpch_sql") return MakeTpchSql(seed);
  return MakeShardPointMixed(seed);
}

/// Result of replaying the op stream for one timed phase.
struct Phase {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;       // as measured
  std::vector<double> norm_latency_ms;  // calibration-normalised
  std::vector<bool> traced;             // op ran with spans recording
  std::vector<double> round_s;          // wall time per round, as measured
  std::vector<double> norm_round_s;     // calibration-normalised
  std::string first_error;
};

/// Replays whole rounds of `w`'s op stream until `seconds` have passed
/// and at least kMinOps ops ran. Only the Execute call is timed; the
/// oracle check runs after the clock stops. Between ops, at most every
/// kCalibrateEveryNs, the calibration kernel runs; its time is left out
/// of the phase's and each round's wall time. Each op's latency and each
/// round's time is normalised by the calibration samples taken within a
/// second of its end. With `spans`,
/// odd rounds record spans and even rounds do not, so traced and
/// untraced ops see the same machine conditions.
Phase RunPhase(Workload* w, double seconds, SpanRecorder* spans,
               Calibration* calibration) {
  Phase p;
  std::vector<int64_t> op_end_ns;
  std::vector<int64_t> round_end_ns;
  const size_t n = w->RoundSize();
  std::vector<uint64_t> cycles(n, 0);
  calibration->Sample();
  int64_t calibration_ns = 0;
  int64_t last_calibration = NowNs();
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  for (uint64_t round = 0;; ++round) {
    const bool traced = spans != nullptr && round % 2 == 1;
    if (spans != nullptr) spans->set_enabled(traced);
    const int64_t round_start = NowNs();
    const int64_t round_calibration_ns = calibration_ns;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t op = OpId(round, i, n);
      const int64_t t0 = NowNs();
      {
        SpanRecorder::Scope span(spans, "bench.op", op);
        w->Execute(i, spans, op);
      }
      const int64_t t1 = NowNs();
      p.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      p.traced.push_back(traced);
      op_end_ns.push_back(t1);
      OpCheck check = w->Check(i);
      if (round == 0) {
        cycles[i] = check.sim_cycles;
      } else if (check.ok && check.sim_cycles != cycles[i]) {
        check.ok = false;
        check.error = "simulated cycles differ from the first round";
      }
      ++p.ops;
      if (!check.ok) {
        ++p.failed;
        if (p.first_error.empty()) {
          p.first_error = "op " + std::to_string(i) + ": " + check.error;
        }
      }
      if (NowNs() - last_calibration >= kCalibrateEveryNs) {
        const int64_t c0 = NowNs();
        calibration->Sample();
        last_calibration = NowNs();
        calibration_ns += last_calibration - c0;
      }
    }
    round_end_ns.push_back(NowNs());
    p.round_s.push_back(
        static_cast<double>(round_end_ns.back() - round_start -
                            (calibration_ns - round_calibration_ns)) /
        1e9);
    p.rounds = round + 1;
    // A traced phase needs at least one untraced and one traced round.
    if (NowNs() - start - calibration_ns >= budget_ns && p.ops >= kMinOps &&
        (spans == nullptr || p.rounds >= 2)) {
      break;
    }
  }
  p.wall_s = static_cast<double>(NowNs() - start - calibration_ns) / 1e9;
  if (spans != nullptr) spans->set_enabled(false);
  calibration->Sample();
  for (size_t k = 0; k < p.latency_ms.size(); ++k) {
    p.norm_latency_ms.push_back(p.latency_ms[k] *
                                calibration->FactorAt(op_end_ns[k]));
  }
  for (size_t r = 0; r < p.round_s.size(); ++r) {
    p.norm_round_s.push_back(p.round_s[r] *
                             calibration->FactorAt(round_end_ns[r]));
  }
  return p;
}

/// Outcome of the cycle pin for one workload.
struct Pin {
  uint64_t ops = 0;
  uint64_t failed = 0;  // wrong answers and non-OK statuses
  bool cycles_ok = true;
};

/// Pins the simulated cycles of workload `name`: builds it from
/// args.pin_seed, runs one round and checks every answer and the round's
/// summed cycles against the stored count. Untimed, and run before any
/// timing; the instance is gone when it returns. Skipped (no ops) when no
/// count is stored for `name`.
Pin RunPin(const std::string& name, const Args& args) {
  Pin pin;
  const auto expected = args.expected_round_cycles.find(name);
  if (expected == args.expected_round_cycles.end()) return pin;
  std::unique_ptr<Workload> w = Make(name, args.pin_seed);
  w->Build(nullptr);
  w->ComputeOracle();
  uint64_t cycles = 0;
  std::string first_error;
  for (size_t i = 0; i < w->RoundSize(); ++i) {
    w->Execute(i, nullptr, 0);
    const OpCheck check = w->Check(i);
    cycles += check.sim_cycles;
    ++pin.ops;
    if (!check.ok) {
      ++pin.failed;
      if (first_error.empty()) {
        first_error = "op " + std::to_string(i) + ": " + check.error;
      }
    }
  }
  pin.cycles_ok = cycles == expected->second;
  std::printf("pin %s: seed %llu, %llu ops, %llu failed, round cycles %llu, "
              "stored %llu: %s%s\n",
              name.c_str(), static_cast<unsigned long long>(args.pin_seed),
              static_cast<unsigned long long>(pin.ops),
              static_cast<unsigned long long>(pin.failed),
              static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(expected->second),
              pin.cycles_ok && pin.failed == 0 ? "ok" : "MISMATCH ",
              first_error.c_str());
  return pin;
}

/// Failed ops of a run: the pin's plus the timed ops', or every op when
/// the pinned cycles moved.
uint64_t FailedOps(const Pin& pin, const Phase& p) {
  return pin.cycles_ok ? pin.failed + p.failed : pin.ops + p.ops;
}

/// For workloads that name their op classes: each class's count and
/// lowest and highest rank in the sorted op latencies, and the class mix
/// of the ops within 5% of all ops around the p50 and p90 ranks.
void PrintClassRanks(const Workload& w, const std::vector<double>& ms) {
  if (w.OpClass(0).empty() || ms.empty()) return;
  const size_t n = w.RoundSize();
  const size_t total = ms.size();
  std::vector<size_t> order(total);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ms[a] < ms[b]; });
  struct Ranks {
    size_t count = 0;
    size_t lo = 0;
    size_t hi = 0;
  };
  std::map<std::string, Ranks> classes;
  for (size_t r = 0; r < total; ++r) {
    Ranks& c = classes[w.OpClass(order[r] % n)];
    if (c.count++ == 0) c.lo = r;
    c.hi = r;
  }
  for (const auto& [name, c] : classes) {
    std::printf("class %-26s %7zu ops, ranks %5.1f%% - %5.1f%%\n",
                name.c_str(), c.count, 100.0 * static_cast<double>(c.lo) /
                                           static_cast<double>(total),
                100.0 * static_cast<double>(c.hi) / static_cast<double>(total));
  }
  const size_t window = total / 20;
  for (double q : {0.5, 0.9}) {
    const size_t rank =
        std::min(total - 1, static_cast<size_t>(q * static_cast<double>(total)));
    std::map<std::string, size_t> mix;
    const size_t lo = rank > window ? rank - window : 0;
    const size_t hi = std::min(total - 1, rank + window);
    for (size_t r = lo; r <= hi; ++r) ++mix[w.OpClass(order[r] % n)];
    std::printf("p%.0f rank %zu is %s; ranks %zu-%zu:", q * 100, rank,
                w.OpClass(order[rank] % n).c_str(), lo, hi);
    for (const auto& [name, count] : mix) {
      std::printf(" %s %zu", name.c_str(), count);
    }
    std::printf("\n");
  }
}

void WarmUp(Workload* w) {
  for (size_t i = 0; i < w->RoundSize(); ++i) {
    if (w->InWarmup(i)) w->Execute(i, nullptr, 0);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintEnv(const Args& args, int host_threads) {
  const char* fast = std::getenv("RELFAB_SIM_FAST_PATH");
  const bool fast_path = sim::MemorySystem().fast_path();
  std::printf(
      "env {\"nproc\": %ld, \"host_threads\": %d, "
      "\"RELFAB_SIM_FAST_PATH\": \"%s\", \"sim_fast_path\": %s, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), host_threads,
      fast == nullptr ? "unset" : fast, fast_path ? "true" : "false",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.value, metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
}

int RunMeasured(const Args& args) {
  const Pin pin = RunPin(args.workload, args);
  Calibration calibration;
  // Set-up runs kSetupRepeats times from scratch, each instance torn
  // down before the next is built and followed by one calibration
  // sample; setup_s is the median of the normalised repeats. The last
  // instance runs the timed phase.
  std::vector<double> setup_s;
  std::vector<int64_t> setup_end_ns;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w.reset();
    std::unique_ptr<Workload> candidate = Make(args.workload, args.seed);
    const int64_t t0 = NowNs();
    candidate->Build(nullptr);
    const int64_t t1 = NowNs();
    if (rep == kSetupRepeats - 1) candidate->ComputeOracle();
    const int64_t t2 = NowNs();
    WarmUp(candidate.get());
    const int64_t t3 = NowNs();
    setup_s.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9);
    setup_end_ns.push_back(t3);
    w = std::move(candidate);
    calibration.Sample();
  }
  const double setup_calibration_ms = calibration.MedianMs();
  std::vector<double> norm_setup_s;
  for (size_t r = 0; r < setup_s.size(); ++r) {
    norm_setup_s.push_back(setup_s[r] * calibration.FactorAt(setup_end_ns[r]));
  }
  PrintEnv(args, w->HostThreads());

  Phase p = RunPhase(w.get(), args.seconds, nullptr, &calibration);
  std::vector<double> raw = p.latency_ms;
  std::sort(raw.begin(), raw.end());
  std::vector<double> sorted = p.norm_latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p90 = Percentile(sorted, 0.9);
  const size_t beyond_p90 = static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p90));
  // Every round runs the same ops, so each round's time is one sample of
  // throughput; the median round rejects rounds a machine hiccup hit.
  const double round_ops = static_cast<double>(w->RoundSize());
  const double rate = round_ops / Median(p.round_s);
  std::printf("%s: %llu ops in %llu rounds of %zu, %.3f s; p90 from %zu "
              "samples, %zu beyond it\n",
              args.workload.c_str(), static_cast<unsigned long long>(p.ops),
              static_cast<unsigned long long>(p.rounds), w->RoundSize(),
              p.wall_s, sorted.size(), beyond_p90);
  PrintClassRanks(*w, p.norm_latency_ms);
  std::printf("measured (not normalised): setup_s %.6f, ops_per_s %.3f, "
              "op_ms_p50 %.4f, op_ms_p90 %.4f; calibration %.3f ms at "
              "set-up, %.3f ms over all %zu samples of the run "
              "(reference %.1f ms)\n",
              Median(setup_s), rate, Percentile(raw, 0.5),
              Percentile(raw, 0.9), setup_calibration_ms,
              calibration.MedianMs(), calibration.samples(),
              Calibration::kReferenceMs);
  if (!p.first_error.empty()) {
    std::printf("first failure: %s\n", p.first_error.c_str());
  }

  Metrics m;
  Add(&m, "setup_s", Median(norm_setup_s), "s");
  Add(&m, "ops_per_s", round_ops / Median(p.norm_round_s), "1/s");
  Add(&m, "op_ms_p50", Percentile(sorted, 0.5), "ms");
  Add(&m, "op_ms_p90", p90, "ms");
  Add(&m, "peak_rss_mb", PeakRssMb(), "MB");
  const uint64_t failed = FailedOps(pin, p);
  PrintResult(failed == 0 && beyond_p90 >= 10, pin.ops + p.ops, failed, m);
  return 0;
}

int RunTraced(const Args& args) {
  std::vector<std::string> order = {args.workload};
  for (const char* w : kWorkloads) {
    if (args.workload != w) order.push_back(w);
  }
  const double per_workload = args.seconds / static_cast<double>(order.size());
  Metrics layers;
  Metrics overhead;
  std::map<std::string, double> self_s;
  std::map<std::string, double> setup_span_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool probes_ok = true;
  int host_threads = 1;
  Calibration calibration;

  for (const std::string& name : order) {
    const Pin pin = RunPin(name, args);
    SpanRecorder spans;
    spans.set_enabled(true);
    std::unique_ptr<Workload> w = Make(name, args.seed);
    host_threads = std::max(host_threads, w->HostThreads());
    {
      SpanRecorder::Scope span(&spans, "bench.setup");
      w->Build(&spans);
    }
    w->ComputeOracle();
    spans.set_enabled(false);
    WarmUp(w.get());
    calibration.Reset();
    w->StartCounting();
    const Phase p = RunPhase(w.get(), per_workload, &spans, &calibration);
    spans.set_enabled(true);
    probes_ok = w->Probe(&spans) && probes_ok;
    spans.set_enabled(false);

    attempted += pin.ops + p.ops;
    failed += FailedOps(pin, p);
    if (!p.first_error.empty()) {
      std::printf("%s first failure: %s\n", name.c_str(),
                  p.first_error.c_str());
    }
    // Ops per second of normalised op time, traced rounds against the
    // untraced rounds interleaved with them.
    double op_s[2] = {0, 0};
    uint64_t ops[2] = {0, 0};
    for (size_t k = 0; k < p.ops; ++k) {
      op_s[p.traced[k]] += p.norm_latency_ms[k] / 1e3;
      ++ops[p.traced[k]];
    }
    const double plain_rate = static_cast<double>(ops[0]) / op_s[0];
    const double traced_rate = static_cast<double>(ops[1]) / op_s[1];
    std::printf("%s: untraced %.1f ops/s (%llu ops), traced %.1f ops/s "
                "(%llu ops), %zu spans\n",
                name.c_str(), plain_rate,
                static_cast<unsigned long long>(ops[0]), traced_rate,
                static_cast<unsigned long long>(ops[1]),
                spans.spans().size());
    Add(&overhead, "trace.overhead_share." + name,
        1.0 - traced_rate / plain_rate, "ratio");
    w->ReportLayers(spans, &layers);
    for (const auto& [layer, s] : spans.SelfSecondsByLayer()) {
      self_s[layer] += s;
    }
    for (const char* span_name : {"tpch.generate", "layout.load",
                                  "layout.columnar_copy", "query.analyze"}) {
      for (double ms : spans.DurationsMs(span_name)) {
        setup_span_s[span_name] += ms / 1e3;
      }
    }
    if (!args.spans_dir.empty()) {
      const std::string path = args.spans_dir + "/" + name + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      if (!spans.WriteChromeTrace(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        probes_ok = false;
      }
    }
  }
  PrintEnv(args, host_threads);

  Metrics m;
  Add(&m, "tpch.generate_s", setup_span_s["tpch.generate"], "s");
  Add(&m, "layout.load_s", setup_span_s["layout.load"], "s");
  Add(&m, "layout.columnar_copy_s", setup_span_s["layout.columnar_copy"], "s");
  Add(&m, "query.analyze_s", setup_span_s["query.analyze"], "s");
  m.insert(m.end(), layers.begin(), layers.end());
  for (const auto& [layer, s] : self_s) {
    Add(&m, "self_s." + layer, s, "s");
  }
  m.insert(m.end(), overhead.begin(), overhead.end());
  PrintResult(failed == 0 && probes_ok, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace relfab::perfbench

int main(int argc, char** argv) {
  using namespace relfab::perfbench;
  if (std::getenv("RELFAB_FAULTS") != nullptr) {
    std::fprintf(stderr,
                 "relfab_perf: $RELFAB_FAULTS is set; the benchmark runs "
                 "only with fault injection unarmed\n");
    return 2;
  }
  const Args args = ParseArgs(argc, argv);
  return args.trace ? RunTraced(args) : RunMeasured(args);
}
