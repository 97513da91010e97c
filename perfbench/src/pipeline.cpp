#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include "core/policy.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "target/size_model.h"
#include "workloads/generator.h"
#include "workloads/suites.h"

namespace perfbench {

using namespace posetrl;

namespace {

// Offered load, fixed from the capacity measured on the parent commit
// (two workers, the request mix below; NOTES.md). Both commits of a
// comparison get exactly these rates. Capacity is about 30 req/s without
// the online learner and 26 req/s with it. Light load is a third of the
// first; heavy load is about 70% of the second. Nearer to capacity, the
// shared box's speed drift turns into queueing the bounds cannot hold.
constexpr double kCapacityRps = 30.0;
constexpr double kLightRps = 10.0;
constexpr double kHeavyRps = 18.0;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kActors = 2;
constexpr std::size_t kWarmupRequests = 4;
// Closed loop: two requests per worker, so a worker never waits for one.
constexpr std::size_t kSaturatedInFlight = 2 * kWorkers;
// Seconds of a run that are not load phases: the set-up rounds, the
// held-out judgement and the output checks (NOTES.md).
constexpr double kFixedSeconds = 10.0;
// Shares of the remaining seconds spent in the light, heavy and saturated
// phases.
constexpr double kLightShare = 0.16;
constexpr double kHeavyShare = 0.75;
constexpr double kSaturatedShare = 0.09;
// Requests per block of the request mix: the 13 SPEC-2017 and 12 MiBench
// shapes of the held-out suites, once each.
constexpr std::size_t kMixBlock = 25;
// Ingested episodes between the online learner's promotion attempts. Each
// attempt runs canary rollouts on the workers' cores; at the default of 8,
// and still at 32, those bursts dominated serve-online's spreads (NOTES.md).
constexpr std::size_t kPromoteEvery = 64;
// Seed of the fixed training-corpus draw.
constexpr std::uint64_t kTrainDrawSeed = 2022;
// serve_heavy_p99_ms is the median of the p99s of this many consecutive
// windows of the heavy phase. A stall of the shared box's disk or CPU
// lasts well under a window; with the whole-phase p99, runs that met one
// and runs that did not spread it by 0.51 over ten seeds (NOTES.md).
constexpr std::size_t kTailWindows = 5;
// Latency limit of serve_heavy_slo_share.
constexpr double kSloMs = 250.0;
// A generator that falls further behind its schedule than this measures
// itself, not the service: the run fails.
constexpr double kMaxGeneratorLateMs = 50.0;
// Never reached: with no expiry every served output is deterministic.
constexpr std::int64_t kDeadlineMs = 120000;
// Threads for the output checks, which run while the service is idle.
constexpr std::size_t kCheckThreads = 3;

/// Requests a phase sends at \p rate for \p seconds, in whole blocks of
/// the request mix (at least one), so every phase carries the mix exactly.
std::size_t count(double rate, double seconds) {
  const double blocks = std::round(rate * seconds / kMixBlock);
  return kMixBlock * static_cast<std::size_t>(std::max(1.0, blocks));
}

/// Runs body(i) for i in [0, n) on a few threads. An exception in body is
/// reported through \p failed[i] instead of ending the process.
template <typename Body>
void parallelFor(std::size_t n, Body&& body, std::vector<std::string>& failed) {
  failed.assign(n, std::string());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::min(kCheckThreads, n); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          body(i);
        } catch (const std::exception& e) {
          failed[i] = std::string("exception: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Interpreter result equality: return value, observable effects, no trap.
bool sameBehaviour(const ExecResult& ref, const ExecResult& out) {
  return ref.ok && out.ok && ref.fingerprint() == out.fingerprint();
}

/// Empty when \p out behaves like \p ref, else what differs.
std::string behaviourDiff(const ExecResult& ref, const ExecResult& out) {
  if (sameBehaviour(ref, out)) return {};
  const auto show = [](const ExecResult& r) {
    return r.ok ? "returns " + std::to_string(r.return_value) + " after " +
                      std::to_string(r.steps) + " steps"
                : "traps (" + r.trap + ")";
  };
  return "behaves differently: input " + show(ref) + ", output " + show(out);
}

std::unique_ptr<Module> regenerate(const ProgramSpec& base, Rng& rng,
                                   const std::string& tag) {
  ProgramSpec spec = base;
  spec.seed = rng.next();
  spec.name = base.name + "/" + tag;
  return generateProgram(spec);
}

}  // namespace

Plan Plan::measured(bool online, int seconds) {
  Plan p;
  p.online = online;
  const double s = std::max(0.0, static_cast<double>(seconds) - kFixedSeconds);
  p.light_requests = count(kLightRps, kLightShare * s);
  p.heavy_requests = count(kHeavyRps, kHeavyShare * s);
  p.saturated_requests = count(kCapacityRps, kSaturatedShare * s);
  return p;
}

Plan Plan::tiny(bool online) {
  Plan p;
  p.online = online;
  p.train_programs = 6;
  p.train_steps = 300;
  p.setup_rounds = 1;
  p.light_requests = 4;
  p.heavy_requests = 8;
  p.saturated_requests = 6;
  return p;
}

std::vector<const Module*> Inputs::trainView() const {
  std::vector<const Module*> out;
  for (const auto& m : train) out.push_back(m.get());
  return out;
}

std::vector<Module*> Inputs::requestView(std::size_t first,
                                         std::size_t count) const {
  std::vector<Module*> out;
  for (std::size_t i = first; i < first + count && i < requests.size(); ++i) {
    out.push_back(requests[i].get());
  }
  return out;
}

Inputs makeInputs(std::uint64_t seed, const Plan& plan) {
  Inputs in;

  // A draw without replacement from the training corpus, which mixes
  // 2..6-kernel programs of four archetypes. The draw is fixed rather than
  // taken from the workload seed: the trained agent is the configuration
  // being served, and agents trained on different draws differ in quality
  // far more than any bound could allow (NOTES.md).
  Rng draw(kTrainDrawSeed);
  std::vector<ProgramSpec> corpus = trainingCorpus().programs;
  for (std::size_t i = 0; i < plan.train_programs && i < corpus.size(); ++i) {
    const std::size_t j = i + draw.nextBelow(corpus.size() - i);
    std::swap(corpus[i], corpus[j]);
    in.train.push_back(generateProgram(corpus[i]));
  }

  const std::vector<ProgramSpec> large = spec2017Suite().programs;
  const std::vector<ProgramSpec> small = mibenchSuite().programs;
  for (const ProgramSpec& spec : large) in.heldout.push_back(generateProgram(spec));
  for (const ProgramSpec& spec : small) in.heldout.push_back(generateProgram(spec));

  // Requests are fresh programs shaped like the held-out suites' (same
  // kernel mix and size, new seed), so no request repeats a module. The mix
  // is the suites' own: 13 SPEC-2017 shapes to 12 MiBench shapes. Each
  // block of 25 requests carries every shape once, large and small
  // alternating, and each phase starts a fresh block, so every phase of
  // every seed carries the same work in the same order and only the
  // programs themselves change with the seed: large programs at seeded
  // positions sometimes arrive back to back, and how often that happens
  // moves the heavy-phase p99.
  std::vector<const ProgramSpec*> shapes;
  for (std::size_t i = 0; i < large.size() + small.size(); ++i) {
    shapes.push_back(i % 2 == 0 && i / 2 < large.size() ? &large[i / 2]
                                                        : &small[i / 2]);
  }
  if (shapes.size() != kMixBlock) {
    throw std::logic_error("the held-out suites no longer hold 25 programs");
  }
  Rng rng = Rng::forStream(seed, 0x7e57);
  const auto request = [&](std::size_t i, const std::string& tag) {
    return regenerate(*shapes[i % shapes.size()], rng, tag);
  };
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    in.warmup.push_back(request(i, "warmup" + std::to_string(i)));
  }
  // Each phase starts a fresh block.
  for (std::size_t n : {plan.light_requests, plan.heavy_requests,
                        plan.saturated_requests}) {
    for (std::size_t i = 0; i < n; ++i) {
      in.requests.push_back(
          request(i, "req" + std::to_string(in.requests.size())));
    }
  }
  return in;
}

TrainConfig trainConfig(const Plan& plan) {
  TrainConfig cfg;
  cfg.total_steps = plan.train_steps;
  cfg.num_actors = kActors;
  cfg.agent.epsilon_decay_steps = plan.train_steps;
  return cfg;
}

Deployment::Deployment(const DoubleDqn& agent, const Plan& plan,
                       const Inputs& inputs, std::string state_dir)
    : state_dir_(std::move(state_dir)) {
  const TrainConfig tcfg = trainConfig(plan);
  const std::vector<SubSequence>& actions = resolveTrainActions(tcfg);
  if (plan.online) {
    std::filesystem::remove_all(state_dir_);
    std::filesystem::create_directories(state_dir_);
    OnlineLearnerConfig ocfg;
    ocfg.dir = state_dir_;
    ocfg.env = tcfg.env;
    ocfg.promote_every = kPromoteEvery;
    learner_ = std::make_unique<OnlineLearner>(agent, actions, ocfg);
    if (learner_->stats().recovered_records != 0) {
      throw std::runtime_error("online state directory was not fresh");
    }
    for (std::size_t i = 0; i < 2 && i < inputs.train.size(); ++i) {
      learner_->addHoldoutModule(*inputs.train[i]);
    }
    learner_->start();
  }
  ServeConfig scfg;
  scfg.workers = kWorkers;
  scfg.queue_capacity = 1u << 14;  // admission never sheds in these phases
  scfg.env = tcfg.env;
  scfg.online = learner_.get();
  service_ = std::make_unique<CompileService>(agent, actions, scfg);
}

Deployment::~Deployment() {
  stop();
  if (learner_ != nullptr) {
    service_.reset();
    learner_.reset();
    std::error_code ec;
    std::filesystem::remove_all(state_dir_, ec);
  }
}

void Deployment::stop() {
  service_->shutdown();
  if (learner_ != nullptr) learner_->stop();
}

std::unique_ptr<Setup> setUp(std::uint64_t seed, const Plan& plan,
                             const std::string& state_dir) {
  auto s = std::make_unique<Setup>();
  s->inputs = makeInputs(seed, plan);
  const auto t0 = Clock::now();
  TrainResult trained = trainAgent(s->inputs.trainView(), trainConfig(plan));
  s->train_seconds = secondsBetween(t0, Clock::now());
  s->agent = std::move(trained.agent);
  s->train_stats = std::move(trained.stats);
  s->deployment =
      std::make_unique<Deployment>(*s->agent, plan, s->inputs, state_dir);
  std::vector<Module*> warm;
  for (const auto& m : s->inputs.warmup) warm.push_back(m.get());
  s->warmup = runClosedLoop(s->deployment->service(), warm, warm.size());
  return s;
}

std::vector<double> PhaseRun::latencies() const {
  std::vector<double> out;
  for (const Served& s : served) out.push_back(s.latency_ms);
  return out;
}

std::vector<double> PhaseRun::queueMs() const {
  std::vector<double> out;
  for (const Served& s : served) out.push_back(s.result.queue_ms);
  return out;
}

std::vector<double> PhaseRun::serviceMs() const {
  std::vector<double> out;
  for (const Served& s : served) {
    out.push_back(s.result.latency_ms - s.result.queue_ms);
  }
  return out;
}

PhaseRun runOpenLoop(CompileService& service,
                     const std::vector<Module*>& programs, double rps) {
  const std::size_t n = programs.size();
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<std::future<ServeResult>> futures(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(static_cast<double>(i) / rps));
    std::this_thread::sleep_until(due[i]);
    sent[i] = Clock::now();
    futures[i] = service.submit(*programs[i], Deadline::afterMillis(kDeadlineMs));
  }
  PhaseRun run;
  run.served.resize(n);
  double end_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Served& s = run.served[i];
    s.input = programs[i];
    s.result = futures[i].get();
    const double late_ms = millisBetween(due[i], sent[i]);
    s.latency_ms = late_ms + s.result.latency_ms;
    run.max_late_ms = std::max(run.max_late_ms, late_ms);
    end_ms = std::max(end_ms, millisBetween(start, due[i]) + s.latency_ms);
  }
  run.seconds = end_ms / 1000.0;
  return run;
}

PhaseRun runClosedLoop(CompileService& service,
                       const std::vector<Module*>& programs,
                       std::size_t in_flight) {
  const std::size_t n = programs.size();
  PhaseRun run;
  run.served.resize(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<std::future<ServeResult>> futures(n);
  std::deque<std::size_t> outstanding;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  const auto send = [&] {
    sent[next] = Clock::now();
    futures[next] =
        service.submit(*programs[next], Deadline::afterMillis(kDeadlineMs));
    outstanding.push_back(next++);
  };
  while (next < n && outstanding.size() < in_flight) send();
  std::vector<double> done_ms;
  while (!outstanding.empty()) {
    const std::size_t i = outstanding.front();
    outstanding.pop_front();
    Served& s = run.served[i];
    s.input = programs[i];
    s.result = futures[i].get();
    s.latency_ms = s.result.latency_ms;
    done_ms.push_back(millisBetween(start, sent[i]) + s.latency_ms);
    if (next < n) send();
  }
  std::sort(done_ms.begin(), done_ms.end());
  run.seconds = done_ms.empty() ? 0.0 : done_ms.back() / 1000.0;
  const std::size_t k = std::min(in_flight, n / 4);
  if (n > 2 * k + 1) {
    run.steady_rps = static_cast<double>(n - 1 - 2 * k) * 1000.0 /
                     (done_ms[n - 1 - k] - done_ms[k]);
  }
  return run;
}

Tally checkServed(PhaseRun& phase) {
  std::vector<std::string> failed;
  parallelFor(
      phase.served.size(),
      [&](std::size_t i) {
        Served& s = phase.served[i];
        ServeResult& r = s.result;
        std::string& why = failed[i];
        if (r.status != ServeStatus::Ok || r.optimized == nullptr) {
          why = std::string("status ") + serveStatusName(r.status);
        } else if (const VerifyResult v = verifyModule(*r.optimized); !v.ok()) {
          why = "output does not verify: " + v.message();
        } else if (const std::string diff = behaviourDiff(
                       runModule(*s.input), runModule(*r.optimized));
                   !diff.empty()) {
          why = std::string(serviceLevelName(r.level)) + " output of " +
                s.input->name() + " " + diff;
        } else if (r.oz_verified && r.size_bytes > r.oz_size_bytes * (1.0 + 1e-9)) {
          why = "output larger than stock -Oz";
        }
        r.optimized.reset();
      },
      failed);
  Tally tally;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    tally.check(failed[i].empty(), "served request " +
                                       std::to_string(phase.served[i].result.request_id) +
                                       ": " + failed[i]);
  }
  return tally;
}

double heavyP99Ms(const PhaseRun& heavy) {
  const std::vector<double> latencies = heavy.latencies();
  const std::size_t n = latencies.size();
  std::vector<double> p99;
  for (std::size_t w = 0; w < kTailWindows; ++w) {
    std::vector<double> window(latencies.begin() + w * n / kTailWindows,
                               latencies.begin() + (w + 1) * n / kTailWindows);
    if (!window.empty()) p99.push_back(percentile(std::move(window), 99.0));
  }
  return median(p99);
}

double heavySloShare(const PhaseRun& heavy) {
  std::size_t within = 0;
  for (const Served& s : heavy.served) {
    if (s.result.status == ServeStatus::Ok && s.latency_ms <= kSloMs) ++within;
  }
  return heavy.served.empty() ? 0.0
                              : static_cast<double>(within) /
                                    static_cast<double>(heavy.served.size());
}

ServePhases runServePhases(Setup& setup, const Plan& plan, Tally& tally) {
  CompileService& service = setup.deployment->service();
  const Inputs& in = setup.inputs;
  ServePhases p;
  const auto checkGenerator = [&](const PhaseRun& run, const char* phase) {
    tally.check(run.max_late_ms <= kMaxGeneratorLateMs,
                std::string(phase) + " generator stayed on schedule (late " +
                    std::to_string(run.max_late_ms) + " ms)");
  };
  p.light = runOpenLoop(service, in.requestView(0, plan.light_requests),
                        kLightRps);
  checkGenerator(p.light, "light");
  tally.merge(checkServed(p.light));
  p.heavy = runOpenLoop(
      service, in.requestView(plan.light_requests, plan.heavy_requests),
      kHeavyRps);
  checkGenerator(p.heavy, "heavy");
  tally.merge(checkServed(p.heavy));
  p.saturated = runClosedLoop(
      service,
      in.requestView(plan.light_requests + plan.heavy_requests,
                     plan.saturated_requests),
      kSaturatedInFlight);
  tally.merge(checkServed(p.saturated));
  return p;
}

HeldOut evaluateHeldOut(const DoubleDqn& agent, const Plan& plan,
                        const Inputs& inputs) {
  const TrainConfig tcfg = trainConfig(plan);
  const EnvConfig& env = tcfg.env;
  const std::vector<SubSequence>& actions = resolveTrainActions(tcfg);
  const SizeModel size(TargetInfo::forArch(env.arch));
  const std::size_t n = inputs.heldout.size();
  std::vector<double> size_ratio(n, 1.0), cycles_ratio(n, 1.0);
  std::vector<std::string> policy_failed(n), oz_failed(n), errors;
  parallelFor(
      n,
      [&](std::size_t i) {
        Module& program = *inputs.heldout[i];
        const PolicyRollout rollout = applyPolicy(agent, program, actions, env);
        const std::unique_ptr<Module> oz = applyPipeline(program, ozPassNames());
        const ExecResult ref = runModule(program);
        const ExecResult by_policy = runModule(*rollout.optimized);
        const ExecResult by_oz = runModule(*oz);
        if (!verifyModule(*rollout.optimized).ok() ||
            !sameBehaviour(ref, by_policy)) {
          policy_failed[i] = "policy output of " + program.name();
        }
        if (!verifyModule(*oz).ok() || !sameBehaviour(ref, by_oz)) {
          oz_failed[i] = "-Oz output of " + program.name();
        }
        size_ratio[i] = size.objectBytes(*rollout.optimized) / size.objectBytes(*oz);
        cycles_ratio[i] = by_policy.cycles / by_oz.cycles;
      },
      errors);
  HeldOut out;
  for (std::size_t i = 0; i < n; ++i) {
    out.tally.check(policy_failed[i].empty(), "held-out " + policy_failed[i]);
    out.tally.check(oz_failed[i].empty(), "held-out " + oz_failed[i]);
    out.tally.check(errors[i].empty(), "held-out program: " + errors[i]);
  }
  out.size_ratio = geometricMean(size_ratio);
  out.cycles_ratio = geometricMean(cycles_ratio);
  return out;
}

ServedQuality servedQuality(const std::vector<const PhaseRun*>& phases) {
  std::vector<double> ratios;
  std::size_t ok = 0, wins = 0;
  for (const PhaseRun* phase : phases) {
    for (const Served& s : phase->served) {
      const ServeResult& r = s.result;
      if (r.status != ServeStatus::Ok) continue;
      ++ok;
      if (r.level == ServiceLevel::FullRollout ||
          r.level == ServiceLevel::BestPrefix) {
        ++wins;
      }
      if (r.oz_verified) ratios.push_back(r.size_bytes / r.oz_size_bytes);
    }
  }
  ServedQuality q;
  q.size_ratio_vs_oz = geometricMean(ratios);
  q.policy_win_rate =
      ok == 0 ? 0.0 : static_cast<double>(wins) / static_cast<double>(ok);
  return q;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
