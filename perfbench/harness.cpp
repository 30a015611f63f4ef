#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <random>

namespace perfbench {

/// Fixed reference work owned by the benchmark, never by the library: a
/// byte-wise table CRC over an L2-resident buffer, dependent random probes
/// into a 2 MiB table, and independent random reads from a 64 MiB table.
/// Timed just before and after every part of an op, it tracks the shared
/// machine's speed swings, which move op walls by 10-30% between runs, in
/// both core and memory speed; dividing them out leaves the code's cost.
class Calibration {
 public:
  Calibration() : bytes_(256u << 10), table_(1u << 18), big_(1u << 23) {
    std::mt19937_64 rng(2006);
    for (auto& b : bytes_) b = static_cast<std::uint8_t>(rng());
    for (auto& t : table_) t = rng();
    for (auto& t : big_) t = rng();
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      crc_[i] = c;
    }
  }

  /// Wall seconds of one pass.
  double run() {
    const double t0 = now_s();
    std::uint32_t c = ~0u;
    for (int pass = 0; pass < 24; ++pass) {
      for (const std::uint8_t b : bytes_) c = crc_[(c ^ b) & 0xff] ^ (c >> 8);
    }
    std::uint64_t x = c | 1, s = 0;
    for (int i = 0; i < (1 << 19); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      s += table_[(x + s) & (table_.size() - 1)];
    }
    for (int i = 0; i < (1 << 21); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      s += big_[x & (big_.size() - 1)];
    }
    sink_ = s;  // observable, so the loops are not optimised away
    return now_s() - t0;
  }

  double resident_mb() const {
    return static_cast<double>(bytes_.size() + 8 * table_.size() +
                               8 * big_.size()) /
           (1024.0 * 1024.0);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> big_;
  std::uint32_t crc_[256] = {};
  volatile std::uint64_t sink_ = 0;
};

namespace {

/// Calibration pass wall on the reference machine (4-vCPU Xeon VM at
/// 2.1 GHz); calibrated times are op walls rescaled to its speed.
constexpr double kCalibrationRefSeconds = 0.060;

std::unique_ptr<Calibration> g_calibration;

Calibration& calibration() {
  start_calibration();
  return *g_calibration;
}

}  // namespace

void start_calibration() {
  if (!g_calibration) g_calibration = std::make_unique<Calibration>();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return g_calibration ? mb - g_calibration->resident_mb() : mb;
}

std::uint32_t SpanRecorder::begin(const std::string& name) {
  if (!enabled_) return 0;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.op = op_;
  s.name = name;
  s.start = now_s();
  s.end = s.start;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id) {
  spans_[id - 1].end = now_s();
  open_.pop_back();
}

double SpanRecorder::total(const std::string& name, std::uint32_t op) const {
  double t = 0;
  for (const auto& s : spans_) {
    if (s.op == op && s.name == name) t += s.duration();
  }
  return t;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"op\":%u,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f}%s\n",
                 s.id, s.parent, s.op, s.name.c_str(), s.start, s.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = Value{value, unit};
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  std::printf("  %-34s %.9g %s%s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : "  ", detail.c_str());
}

bool Report::print(const std::vector<MetricDef>& defs) const {
  for (const auto& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end() || it->second.unit != d.unit) {
      std::fprintf(stderr, "perfbench: metric %s (%s) was not measured\n",
                   d.name.c_str(), d.unit.c_str());
      return false;
    }
  }
  std::printf("metrics:\n");
  for (const auto& n : order_) {
    const Value& v = values_.at(n);
    std::printf("  %-34s %.9g %s\n", n.c_str(), v.value, v.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const Value& v = values_.at(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name.c_str(), v.value, v.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return true;
}

namespace {

std::string join(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) s += (s.empty() ? "" : " ") + std::to_string(x);
  return s;
}

}  // namespace

void OpTimer::add(double wall) {
  const double after = cal_.run();
  wall_ += wall;
  cal_wall_ += wall * kCalibrationRefSeconds / (0.5 * (before_ + after));
  before_ = after;
}

void measure_ops(double seconds, const std::function<OpSample(OpTimer&)>& op,
                 Report& rep) {
  Calibration& cal = calibration();
  std::vector<double> walls, rates, cal_walls, cal_rates;
  double pass = cal.run();
  std::vector<double> passes{pass};
  const double t0 = now_s();
  while (walls.size() < 3 || now_s() - t0 < seconds) {
    OpTimer timer(cal, pass);
    const OpSample s = op(timer);
    pass = timer.last_pass();
    passes.push_back(pass);
    rep.attempted += 1;
    rep.failed += s.ok ? 0 : 1;
    walls.push_back(timer.wall());
    rates.push_back(s.rows / timer.wall());
    cal_walls.push_back(timer.cal_wall());
    cal_rates.push_back(s.rows / timer.cal_wall());
  }
  rep.add("cal_wall_s_p50", median(cal_walls), "s");
  rep.add("cal_rows_per_s", median(cal_rates), "1/s");
  rep.note("wall_s_p50", median(walls), "s", "uncalibrated");
  rep.note("rows_per_s", median(rates), "1/s", "uncalibrated");
  rep.note("calibration_s_p50", median(passes), "s",
           "reference " + std::to_string(kCalibrationRefSeconds) + " s");
  rep.note("ops", static_cast<double>(walls.size()), "samples",
           "op walls (s): " + join(walls));
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> walls;
  double total = 0;
  while (walls.size() < 5 || (total < 2.0 && walls.size() < 25)) {
    const double t0 = now_s();
    setup();
    walls.push_back(now_s() - t0);
    total += walls.back();
  }
  return median(walls);
}

}  // namespace perfbench
