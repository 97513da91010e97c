#pragma once

/// \file pipeline.h
/// The system under test, driven the way its two user groups drive it:
/// train a phase-ordering policy (trainAgent, parallel actors, checks on),
/// judge it against stock -Oz on held-out suites, then deploy it behind a
/// CompileService (optionally with an OnlineLearner) and load the service
/// with a seeded open-loop request stream. Every output is checked here.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "ir/module.h"
#include "online/online_learner.h"
#include "report.h"
#include "serve/service.h"
#include "support/rng.h"

namespace perfbench {

using posetrl::CompileService;
using posetrl::DoubleDqn;
using posetrl::Module;
using posetrl::OnlineLearner;
using posetrl::ServeResult;

/// Budgets of one run. The offered rates, worker and actor counts and the
/// latency limits are constants in pipeline.cpp, measured once on the
/// parent commit (NOTES.md), so every commit gets the same load.
struct Plan {
  bool online = false;
  std::size_t train_programs = 24;
  std::size_t train_steps = 3000;
  std::size_t setup_rounds = 2;
  std::size_t light_requests = 0;
  std::size_t heavy_requests = 0;
  std::size_t saturated_requests = 0;

  /// The measured plan: --seconds is the whole run, and the phases get
  /// what set-up, the held-out judgement and the checks leave of it.
  static Plan measured(bool online, int seconds);
  /// A tiny plan for the self-test.
  static Plan tiny(bool online);
};

/// Every program one run touches, generated from the workload seed.
struct Inputs {
  std::vector<std::unique_ptr<Module>> train;    ///< Draw from trainingCorpus.
  std::vector<std::unique_ptr<Module>> heldout;  ///< SPEC-2017 + MiBench.
  std::vector<std::unique_ptr<Module>> warmup;
  /// Distinct request programs: light, then heavy, then saturated phase.
  std::vector<std::unique_ptr<Module>> requests;

  std::vector<const Module*> trainView() const;
  std::vector<Module*> requestView(std::size_t first, std::size_t count) const;
};

Inputs makeInputs(std::uint64_t seed, const Plan& plan);

/// Training configuration shared by set-up and the traced run.
posetrl::TrainConfig trainConfig(const Plan& plan);

/// A running service, with its online learner on a fresh state directory
/// when the plan asks for one. The destructor stops both and removes the
/// directory.
class Deployment {
 public:
  Deployment(const DoubleDqn& agent, const Plan& plan, const Inputs& inputs,
             std::string state_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  CompileService& service() { return *service_; }
  OnlineLearner* learner() { return learner_.get(); }
  /// Stops the service and the learner; counters stay readable.
  void stop();

 private:
  std::string state_dir_;
  std::unique_ptr<OnlineLearner> learner_;
  std::unique_ptr<CompileService> service_;
};

/// One served request.
struct Served {
  Module* input = nullptr;
  ServeResult result;
  /// Response time minus scheduled send time (closed loop: minus send time).
  double latency_ms = 0.0;
};

struct PhaseRun {
  std::vector<Served> served;
  double seconds = 0.0;  ///< First scheduled send to last response.
  /// Open loop only: how far the generator fell behind its schedule.
  double max_late_ms = 0.0;

  /// Closed loop only: completions per second between the in_flight-th
  /// and the in_flight-th-from-last completion, so neither the ramp-up nor
  /// the final drain with fewer requests outstanding is counted.
  double steady_rps = 0.0;

  std::vector<double> latencies() const;
  std::vector<double> queueMs() const;
  std::vector<double> serviceMs() const;
};

/// Everything set-up produces.
struct Setup {
  Inputs inputs;
  std::unique_ptr<DoubleDqn> agent;
  posetrl::TrainStats train_stats;
  double train_seconds = 0.0;  ///< The trainAgent call alone.
  std::unique_ptr<Deployment> deployment;
  PhaseRun warmup;  ///< Checked after set-up is timed.
};

/// Generates the inputs, trains the agent, starts the service (and
/// learner) and warms it up.
std::unique_ptr<Setup> setUp(std::uint64_t seed, const Plan& plan,
                             const std::string& state_dir);

/// Open loop: one thread sends \p programs at a constant \p rps requests
/// per second, whatever the service's state.
PhaseRun runOpenLoop(CompileService& service,
                     const std::vector<Module*>& programs, double rps);

/// Closed loop: keeps \p in_flight requests outstanding until every
/// program has been served.
PhaseRun runClosedLoop(CompileService& service,
                       const std::vector<Module*>& programs,
                       std::size_t in_flight);

/// The three load phases, each already checked and stripped of outputs.
struct ServePhases {
  PhaseRun light;      ///< Open loop at about 30% of capacity.
  PhaseRun heavy;      ///< Open loop at about 70% of capacity.
  PhaseRun saturated;  ///< Closed loop keeping every worker busy.
};

/// Tail latency of the heavy phase: the heavy phase is cut into a few
/// consecutive windows in send order, and this is the median of their p99s.
double heavyP99Ms(const PhaseRun& heavy);

/// Share of the heavy phase's requests served Ok within the latency limit.
double heavySloShare(const PhaseRun& heavy);

/// Runs light, heavy and saturated in order on the set-up's service,
/// checking each phase's outputs (and the generator's lateness) into
/// \p tally once the phase is over.
ServePhases runServePhases(Setup& setup, const Plan& plan, Tally& tally);

/// Interprets and verifies every served output against its input, checks
/// the never-worse-than--Oz guarantee, then frees the output modules.
Tally checkServed(PhaseRun& phase);

/// The trained policy against stock -Oz on the held-out programs.
struct HeldOut {
  double size_ratio = 0.0;    ///< Geometric mean policy size / -Oz size.
  double cycles_ratio = 0.0;  ///< Same for interpreter cycles.
  Tally tally;
};

HeldOut evaluateHeldOut(const DoubleDqn& agent, const Plan& plan,
                        const Inputs& inputs);

/// Quality of what the service returned.
struct ServedQuality {
  double size_ratio_vs_oz = 0.0;  ///< Geometric mean over oz-verified Ok.
  double policy_win_rate = 0.0;   ///< Ok at FullRollout or BestPrefix.
};

ServedQuality servedQuality(const std::vector<const PhaseRun*>& phases);

/// Peak resident set of this process, in MiB.
double peakRssMb();

}  // namespace perfbench
