#pragma once

// Shared pieces of the benchmark program: wall timing, the benchmark's own
// span recorder (spans are recorded around calls into the library's public
// functions, never inside them), metric collection and the result line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// Exact empirical quantile by nearest rank, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Allocates and fills the calibration loop's buffers (see measure_ops).
/// Plain runs call it before anything else, so the buffers are resident
/// for the whole process and peak_rss_mb can leave them out exactly.
void start_calibration();

/// Peak resident set size of this process in MiB (getrusage), less the
/// calibration loop's buffers when they exist.
double peak_rss_mb();

/// A metric of the result object: its name and unit, as in BENCHMARK.json.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// Everything the command line selects.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Scratch directory inside the checkout (trace dumps, sql_local files).
  std::string work_dir;
};

/// In-memory span table of the traced run. A span has a name, start, end,
/// parent and the id of the op it belongs to; spans are only recorded
/// while the recorder is enabled, and written out when the run ends.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint32_t op = 0;
    std::string name;
    double start = 0;
    double end = 0;
    double duration() const { return end - start; }
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Opens a span under the innermost open one; returns 0 when disabled.
  std::uint32_t begin(const std::string& name);
  /// Closes `id`, which must be the innermost open span.
  void end(std::uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of the spans named `name` in op `op`.
  double total(const std::string& name, std::uint32_t op) const;

  /// Writes every span as one JSON document; false when the file cannot be
  /// opened.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span ids
};

SpanRecorder& recorder();

/// RAII span around one call into a layer. Spans are opened and closed on
/// the main thread only, so they nest.
class Span {
 public:
  explicit Span(const std::string& name) : id_(recorder().begin(name)) {}
  ~Span() {
    if (id_ != 0) recorder().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
};

/// Named metrics with units, printed one per line and then as the final
/// JSON result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Prints an informational line (not part of the result object).
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints every metric line and the result object. `defs` selects and
  /// orders the metrics of the result object; a metric without a value or
  /// with another unit is an error (returns false and prints nothing).
  bool print(const std::vector<MetricDef>& defs) const;

  bool has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::vector<std::string> order_;
};

class Calibration;

/// Times the parts of one op. Each part's wall time is also rescaled by
/// the calibration passes run just before and after it, which removes most
/// of a shared machine's speed swings (see harness.cpp).
class OpTimer {
 public:
  OpTimer(Calibration& cal, double pass_before)
      : cal_(cal), before_(pass_before) {}

  /// Runs one part of the op and returns its result.
  template <typename F>
  auto part(F&& f) {
    const double t0 = now_s();
    auto result = f();
    add(now_s() - t0);
    return result;
  }

  double wall() const { return wall_; }
  double cal_wall() const { return cal_wall_; }
  /// The last calibration pass, which the next op starts from.
  double last_pass() const { return before_; }

 private:
  void add(double wall);

  Calibration& cal_;
  double before_;
  double wall_ = 0;
  double cal_wall_ = 0;
};

/// What one op reports to the measurement loop besides its timing.
struct OpSample {
  double rows = 0;  // result rows delivered
  bool ok = true;   // output matched the oracle
};

/// The plain run: calls `op` until `seconds` have passed (at least three
/// times) and counts attempted and failed ops. Adds cal_wall_s_p50 (median
/// calibrated op wall) and cal_rows_per_s (median over ops of rows per
/// calibrated second); prints the uncalibrated wall_s_p50 and rows_per_s
/// beside them.
void measure_ops(double seconds, const std::function<OpSample(OpTimer&)>& op,
                 Report& rep);

/// Runs `setup` at least five times, and again until two seconds of
/// set-up have been timed (at most 25 times); returns the median wall
/// seconds. The last run's state is what the caller keeps.
double timed_setup(const std::function<void()>& setup);

/// The metrics of BENCHMARK.json, in file order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

int run_sim_workload(const RunConfig& cfg, Report& report);
int run_sql_local(const RunConfig& cfg, Report& report);
int run_mixed_sessions(const RunConfig& cfg, Report& report);

}  // namespace perfbench
