/// \file main.cpp
/// perfbench: the end-to-end benchmark of the POSET-RL system (NOTES.md).
///
///   perfbench --workload serve|serve-online --seed N --seconds S --trace 0|1
///             [--tiny]
///
/// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
/// is the separate traced run that reports the per-layer metrics. --tiny
/// shrinks every budget for the self-test (run.py --selftest). The last line
/// of standard output is the JSON result; an output that fails its check
/// makes it "correct": false and counts in "failed". The exit code is
/// non-zero only when the benchmark itself could not run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "layers.h"
#include "pipeline.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|serve-online --seed N "
               "--seconds S --trace 0|1 [--tiny]\n");
  return 2;
}

/// Fresh per-process state directory inside the working directory.
std::string stateDir(const std::string& workload, std::size_t round) {
  return (std::filesystem::path(".bench_state") /
          (workload + "-" + std::to_string(getpid()) + "-" +
           std::to_string(round)))
      .string();
}

void measure(const std::string& workload, std::uint64_t seed, const Plan& plan,
             Report& report, Tally& tally) {
  // Set-up runs several times; its median is the reported set-up time.
  std::vector<double> setup_s, train_rate;
  std::unique_ptr<Setup> setup;
  for (std::size_t round = 0; round < plan.setup_rounds; ++round) {
    setup.reset();  // tear-down of the previous round is not set-up
    const auto t0 = Clock::now();
    setup = setUp(seed, plan, stateDir(workload, round));
    setup_s.push_back(secondsBetween(t0, Clock::now()));
    train_rate.push_back(static_cast<double>(setup->train_stats.steps) /
                         setup->train_seconds);
    std::fprintf(stderr, "perfbench: set-up %.3f s, training %.1f steps/s\n",
                 setup_s.back(), train_rate.back());
  }
  tally.merge(checkServed(setup->warmup));

  const HeldOut heldout = evaluateHeldOut(*setup->agent, plan, setup->inputs);
  tally.merge(heldout.tally);

  const ServePhases phases = runServePhases(*setup, plan, tally);
  setup->deployment->stop();
  for (const PhaseRun* p : {&phases.light, &phases.heavy, &phases.saturated}) {
    std::fprintf(stderr,
                 "perfbench: phase %zu requests in %.2f s, service mean %.1f ms, "
                 "queue mean %.1f ms, generator late max %.2f ms\n",
                 p->served.size(), p->seconds, mean(p->serviceMs()),
                 mean(p->queueMs()), p->max_late_ms);
  }
  const ServedQuality quality =
      servedQuality({&phases.light, &phases.heavy, &phases.saturated});
  if (const OnlineLearner* learner = setup->deployment->learner()) {
    const posetrl::OnlineStats o = learner->stats();
    std::fprintf(stderr,
                 "perfbench: online ingested %zu, trained %zu batches, "
                 "%zu promotions, %zu rejections\n",
                 o.ingested_episodes, o.trained_batches, o.promotions,
                 o.rejections);
  }

  const std::vector<double> heavy = phases.heavy.latencies();

  report.add("setup_s", median(setup_s), "s");
  // The fastest round: every round trains the same steps on the same
  // inputs, so the fastest is the one least disturbed by the shared box.
  report.add("train_steps_per_s",
             *std::max_element(train_rate.begin(), train_rate.end()), "1/s");
  report.add("policy_size_ratio_vs_oz", heldout.size_ratio, "ratio");
  report.add("policy_cycles_ratio_vs_oz", heldout.cycles_ratio, "ratio");
  report.add("serve_light_p50_ms", median(phases.light.latencies()), "ms");
  report.add("serve_heavy_p50_ms", median(heavy), "ms");
  report.add("serve_heavy_p99_ms", heavyP99Ms(phases.heavy), "ms");
  report.add("serve_heavy_slo_share", heavySloShare(phases.heavy), "share");
  report.add("serve_capacity_rps", phases.saturated.steady_rps, "1/s");
  report.add("served_size_ratio_vs_oz", quality.size_ratio_vs_oz, "ratio");
  report.add("serve_policy_win_rate", quality.policy_win_rate, "share");
  setup.reset();
  report.add("peak_rss_mb", peakRssMb(), "MB");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* a = argv[i];
    const char* v = nullptr;
    if (std::strcmp(a, "--tiny") == 0) {
      tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage();
    if (std::strcmp(a, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      seconds = std::atoi(v);
    } else if (std::strcmp(a, "--trace") == 0) {
      trace = std::atoi(v);
    } else {
      return usage();
    }
  }
  if ((workload != "serve" && workload != "serve-online") || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  const bool online = workload == "serve-online";
  const Plan plan = tiny ? Plan::tiny(online) : Plan::measured(online, seconds);

  Report report;
  Tally tally;
  try {
    if (trace == 1) {
      traceLayers(seed, plan, stateDir(workload + "-traced", 0), report, tally);
    } else {
      measure(workload, seed, plan, report, tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove(".bench_state", ec);  // only when left empty
  const std::string result = report.json(tally);
  std::printf("%s\n", result.c_str());
  return 0;
}
