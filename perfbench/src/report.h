#pragma once

/// \file report.h
/// Metric records, the small statistics the benchmark reports, and the
/// one-line JSON result it prints last on standard output.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "support/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

inline double millisBetween(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

inline double median(std::vector<double> values) {
  return posetrl::percentile(std::move(values), 50.0);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Checked operations of one run: every output compared against its
/// reference, every determinism cross-check, every generator deadline.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The result line. A non-finite value cannot be written as JSON and
  /// marks the run incorrect.
  std::string json(Tally tally) const {
    std::string body;
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) tally.check(false, "metric " + m.name + " is finite");
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (!body.empty()) body += ", ";
      body += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
    }
    return "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(tally.attempted) +
           ", \"failed\": " + std::to_string(tally.failed) +
           ", \"metrics\": {" + body + "}}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
