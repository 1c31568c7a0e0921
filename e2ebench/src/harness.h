// Shared plumbing of the end-to-end benchmark: command-line options, the
// in-memory span tracer, wall-clock helpers, order statistics, and the
// result record every workload fills in.
#ifndef AXMLX_E2EBENCH_HARNESS_H_
#define AXMLX_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";  ///< WALs and reports go here.
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of untimed work done inside a timed loop (checks, probes,
/// service reinstalls), so the loop's measured time can leave it out.
class ExcludedTime {
 public:
  /// Runs `fn` and adds its wall time to ns().
  template <typename Fn>
  void operator()(Fn&& fn) {
    const int64_t t0 = NowNs();
    fn();
    ns_ += NowNs() - t0;
  }
  int64_t ns() const { return ns_; }

 private:
  int64_t ns_ = 0;
};

/// In-memory span log. A span records its name, start, end and the span that
/// was open when it started, so spans opened from callbacks (journal writes,
/// crash-restart steps, service invocations) nest under the RunTransaction
/// or ExecuteBatch call that triggered them. Spans are only recorded on the
/// thread that created the tracer and only while it is enabled; everything
/// is kept in memory and reduced when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  void Enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Returns the span index, or -1 when not recording.
  int32_t Open(const char* name);
  void Close(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children) and
  /// call count per span name, accumulated over all recorded spans.
  struct Totals {
    int64_t self_ns = 0;
    int64_t total_ns = 0;
    int64_t calls = 0;
  };
  std::map<std::string, Totals> Reduce() const;

 private:
  bool on_ = false;
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; does nothing when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Measured cost of one Open/Close pair on this machine, in ns.
double SpanCostNs();

/// Tracing overhead of a traced run: spans recorded times the measured
/// per-span cost, as a share of the traced work's wall time.
double TraceOverheadPct(const Tracer& tracer, double traced_us);

/// Quantile with linear interpolation between order statistics (q in 0..1).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set size of this process, in MB.
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one benchmark run reports.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// False when a check that belongs to no single operation fails (final
  /// documents, WAL replay); failed operations are counted in `failed`,
  /// and Report() marks a run with any of them incorrect as well.
  bool correct = true;
  std::vector<std::string> errors;  ///< First few check failures.
  std::vector<Metric> end_to_end;   ///< BENCHMARK.json end_to_end metrics.
  std::vector<Metric> workload;     ///< Workload-specific end-to-end figures.
  std::vector<Metric> per_layer;    ///< BENCHMARK.json per_layer metrics.
  /// Per-operation latency samples (µs): the p50/p99 and the
  /// axmlx-bench-v1 histogram.
  std::vector<double> txn_us;

  /// Records a failed check for the current operation (`failed` is counted
  /// by the caller, once per operation).
  void Error(const std::string& message);
  /// Records a failed run-level check and clears `correct`.
  void Incorrect(const std::string& message) {
    correct = false;
    Error(message);
  }
};

/// Names of every per_layer metric, in BENCHMARK.json order. Every run
/// reports all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Self time per operation of every span named `name`, in µs.
double SelfUsPerOp(const std::map<std::string, Tracer::Totals>& totals,
                   const std::string& name, int64_t ops);

/// Prints the traced run's per-span and per-layer self times (µs per
/// operation); the layer is the span name up to its first '.'.
void PrintSpanTable(const std::map<std::string, Tracer::Totals>& spans,
                    int64_t ops);

/// Writes the run as <workdir>/BENCH_e2e_<workload>[_traced].json (schema
/// axmlx-bench-v1): transactions per wall second as the headline rate, every
/// reported figure as a counter (scaled to integers, unit in the name), and
/// the per-transaction latency histogram. Returns the path, or an empty
/// string when the file could not be written.
std::string WriteBenchJson(const Options& options, const RunResult& result);

/// Prints the human-readable summary and the final JSON line, and writes
/// the axmlx-bench-v1 report. Returns the process exit code: 0 only when
/// the run is correct and no operation failed.
int Report(const Options& options, const RunResult& result);

}  // namespace e2e

#endif  // AXMLX_E2EBENCH_HARNESS_H_
