#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace e2e {

int32_t Tracer::Open(const char* name) {
  if (!on_ || std::this_thread::get_id() != owner_) return -1;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); pop down to this one.
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

std::map<std::string, Tracer::Totals> Tracer::Reduce() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = out[spans_[i].name];
    t.total_ns += total;
    t.self_ns += total - child_ns[i];
    ++t.calls;
  }
  return out;
}

double SpanCostNs() {
  Tracer probe;
  probe.Enable(true);
  constexpr int kSpans = 20000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&probe, "probe");
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

double TraceOverheadPct(const Tracer& tracer, double traced_us) {
  if (traced_us <= 0) return 0;
  const double cost_us =
      static_cast<double>(tracer.spans().size()) * SpanCostNs() / 1e3;
  return 100.0 * cost_us / traced_us;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void RunResult::Error(const std::string& message) {
  if (errors.size() < 20) errors.push_back(message);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"repo.run_self_us", "us/op"},
      {"repo.restart_peer_us", "us/op"},
      {"repo.resync_us", "us/op"},
      {"repo.resync_nodes", "nodes/op"},
      {"storage.begin_us", "us/op"},
      {"storage.execute_us", "us/op"},
      {"storage.resolve_us", "us/op"},
      {"storage.wal_records", "records/op"},
      {"storage.wal_flushes", "flushes/op"},
      {"storage.open_us", "us/op"},
      {"storage.replayed_ops", "ops/op"},
      {"storage.recovered_txns", "txns/op"},
      {"overlay.messages_sent", "msgs/op"},
      {"overlay.messages_delivered", "msgs/op"},
      {"overlay.faults_injected", "faults/op"},
      {"txn.compensations_executed", "count/op"},
      {"txn.nodes_compensated", "nodes/op"},
      {"txn.wasted_nodes", "nodes/op"},
      {"txn.retries", "count/op"},
      {"txn.aborts_sent", "msgs/op"},
      {"obs.forensic_dumps", "count/op"},
      {"obs.forensic_bytes", "B/op"},
      {"obs.trace_overhead_pct", "%"},
      {"xml.nodes_allocated", "nodes/op"},
      {"xml.pages_allocated", "pages/op"},
      {"xml.versions_recorded", "count/op"},
      {"xml.versions_pruned", "count/op"},
      {"ops.nodes_affected", "nodes/op"},
      {"query.index_hits", "count/op"},
      {"query.index_candidates", "count/op"},
      {"query.walk_fallbacks", "count/op"},
      {"query.results_per_read", "nodes/read"},
      {"axml.calls", "count/op"},
      {"axml.invoke_us", "us/op"},
      {"comp.execute_us", "us/op"},
      {"comp.commit_us", "us/op"},
      {"comp.abort_us", "us/op"},
      {"comp.conflicts_detected", "count/op"},
      {"comp.commit_ratio", "ratio"},
      {"runtime.batch_us", "us/op"},
      {"runtime.prepared_ratio", "ratio"},
      {"runtime.job_eval_run_us", "us/op"},
      {"runtime.waves", "count/op"},
  };
  return kMetrics;
}

double SelfUsPerOp(const std::map<std::string, Tracer::Totals>& totals,
                   const std::string& name, int64_t ops) {
  auto it = totals.find(name);
  if (it == totals.end() || ops <= 0) return 0;
  return static_cast<double>(it->second.self_ns) / 1e3 /
         static_cast<double>(ops);
}

void PrintSpanTable(const std::map<std::string, Tracer::Totals>& spans,
                    int64_t ops) {
  std::map<std::string, double> layers;
  std::printf("traced self time per operation (%lld traced operations)\n",
              static_cast<long long>(ops));
  std::printf("  %-22s %10s %12s\n", "span", "calls/op", "self_us/op");
  for (const auto& [name, t] : spans) {
    const double per_op = SelfUsPerOp(spans, name, ops);
    std::printf("  %-22s %10.3f %12.2f\n", name.c_str(),
                ops > 0 ? static_cast<double>(t.calls) / ops : 0.0, per_op);
    layers[name.substr(0, name.find('.'))] += per_op;
  }
  std::printf("  %-22s %23s\n", "layer", "self_us/op");
  for (const auto& [layer, us] : layers) {
    std::printf("  %-22s %23.2f\n", layer.c_str(), us);
  }
}

namespace {

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void AppendMetricsJson(const std::vector<Metric>& metrics, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatValue(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  *out += "}";
}

}  // namespace

std::string WriteBenchJson(const Options& options, const RunResult& result) {
  double txn_per_s = 0;
  for (const Metric& m : result.end_to_end) {
    if (m.name == "txn_per_s") txn_per_s = m.value;
  }
  ::mkdir(options.workdir.c_str(), 0755);
  axmlx::bench::JsonReport report("e2e_" + options.workload +
                                      (options.trace ? "_traced" : ""),
                                  /*smoke=*/false);
  report.SetWallOpsPerSec(txn_per_s);
  report.AddCounter("attempted", result.attempted);
  report.AddCounter("failed", result.failed);
  auto add = [&report](const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
      // Counters are integers: store thousandths so fractional figures
      // keep three decimals ("txn_p50_us.milli" = 1000 x µs).
      report.AddCounter(m.name + ".milli",
                        static_cast<int64_t>(m.value * 1000.0));
    }
  };
  add(result.end_to_end);
  add(result.workload);
  add(result.per_layer);
  axmlx::obs::Histogram hist(axmlx::bench::LatencyBucketsUs());
  for (double us : result.txn_us) hist.Observe(static_cast<int64_t>(us));
  report.AddHistogram("txn_latency_us", hist.Snapshot());
  const std::string path = options.workdir + "/BENCH_e2e_" +
                           options.workload +
                           (options.trace ? "_traced" : "") + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << report.ToJson();
  out.close();
  std::fprintf(stderr, "%s %s\n", out ? "wrote" : "warning: cannot write",
               path.c_str());
  return out ? path : std::string();
}

int Report(const Options& options, const RunResult& result) {
  std::printf("workload %s seed %llu: attempted %lld, failed %lld\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (const std::string& e : result.errors) {
    std::printf("  check failed: %s\n", e.c_str());
  }
  auto print = [](const char* group, const std::vector<Metric>& ms) {
    for (const Metric& m : ms) {
      std::printf("  %-10s %-28s %14s %s\n", group, m.name.c_str(),
                  FormatValue(m.value).c_str(), m.unit.c_str());
    }
  };
  print("e2e", result.end_to_end);
  print("workload", result.workload);
  if (options.trace) print("layer", result.per_layer);
  WriteBenchJson(options, result);

  // No operation is expected to fail, so a failed one makes the run
  // incorrect too.
  const bool correct = result.correct && result.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": ";
  AppendMetricsJson(options.trace ? result.per_layer : result.end_to_end,
                    &line);
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace e2e
