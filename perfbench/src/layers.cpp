#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/fast_verifier.h"
#include "core/policy.h"
#include "faults/sandbox.h"
#include "embed/embedder.h"
#include "ir/clone.h"
#include "ir/snapshot.h"
#include "online/wal.h"
#include "passes/pass.h"
#include "rl/matrix.h"
#include "rl/replay_buffer.h"
#include "target/mca_model.h"
#include "target/size_model.h"

namespace perfbench {

using namespace posetrl;

namespace {

// Environment steps of the traced sequential training loop.
constexpr std::size_t kTraceSteps = 1500;
// Records appended to the write-ahead-log replica.
constexpr std::size_t kWalRecords = 160;
// Repetitions of each learner kernel call.
constexpr int kKernelReps = 200;

/// Spans recorded in memory: name, start, end, the span that caused it, and
/// the request (episode or served request) it belongs to.
class Spans {
 public:
  template <typename F>
  auto operator()(const char* name, std::uint64_t request, F&& body) {
    const std::size_t id = spans_.size();
    spans_.push_back({name, Clock::now(), {}, parent_, request});
    const std::size_t saved = parent_;
    parent_ = id;
    struct Close {
      Spans& s;
      std::size_t id, saved;
      ~Close() {
        s.spans_[id].end = Clock::now();
        s.parent_ = saved;
      }
    } close{*this, id, saved};
    return body();
  }

  /// Total duration of every span named \p name, in microseconds.
  double totalUs(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) us += 1e3 * millisBetween(s.start, s.end);
    }
    return us;
  }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(std::count_if(
        spans_.begin(), spans_.end(),
        [&](const Span& s) { return name == s.name; }));
  }
  double meanUs(const std::string& name) const {
    const std::size_t n = count(name);
    return n == 0 ? 0.0 : totalUs(name) / static_cast<double>(n);
  }

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::size_t parent;
    std::uint64_t request;
  };
  std::vector<Span> spans_;
  std::size_t parent_ = kNoParent;
};

/// A span-free stand-in with the same call shape, for the untraced twin of
/// each traced loop.
struct NoSpans {
  template <typename F>
  auto operator()(const char*, std::uint64_t, F&& body) {
    return body();
  }
};

/// What the traced training loop leaves for the sub-layer replay.
struct Episode {
  std::size_t program = 0;
  std::vector<std::size_t> actions;
  std::vector<bool> faulted;
};

struct TrainLoop {
  double seconds = 0.0;
  std::size_t steps = 0;
  std::size_t faulted_steps = 0;
  std::vector<Episode> episodes;
  std::vector<Embedding> states;  ///< Visited states, for actGreedy timing.
  std::vector<EpisodeRecord> records;  ///< Episodes as the WAL stores them.
  std::unique_ptr<DoubleDqn> agent;
  std::unique_ptr<ReplayBuffer> replay;
};

/// The sequential trainer's loop (core/trainer.cpp), rebuilt from public
/// calls so each layer boundary can carry a span: env reset/step, ε-greedy
/// act, and learner updates at the trainer's cadence.
template <typename Trace>
TrainLoop trainLoop(const std::vector<const Module*>& corpus,
                    const TrainConfig& cfg, Trace& trace) {
  const std::vector<SubSequence>& actions = resolveTrainActions(cfg);
  TrainLoop out;
  out.agent = std::make_unique<DoubleDqn>(cfg.agent);
  out.replay = std::make_unique<ReplayBuffer>(cfg.agent.replay_capacity);
  DoubleDqn& agent = *out.agent;
  Rng sample_rng(cfg.seed);
  std::vector<std::unique_ptr<PhaseOrderEnv>> envs;
  for (const Module* m : corpus) {
    envs.push_back(std::make_unique<PhaseOrderEnv>(*m, actions, cfg.env));
  }
  const auto t0 = Clock::now();
  for (std::uint64_t ep = 0; out.steps < kTraceSteps; ++ep) {
    Episode record{ep % envs.size(), {}, {}};
    PhaseOrderEnv& env = *envs[record.program];
    Embedding state = trace("core.reset", ep, [&] { return env.reset(); });
    std::vector<Transition> episode;
    bool done = false;
    while (!done && out.steps < kTraceSteps) {
      const std::size_t a = trace("rl.act", ep, [&] {
        return agent.act(state, /*explore=*/true, &env.actionMask());
      });
      PhaseOrderEnv::StepResult sr =
          trace("core.step", ep, [&] { return env.step(a); });
      ++out.steps;
      out.faulted_steps += sr.faulted ? 1 : 0;
      record.actions.push_back(a);
      record.faulted.push_back(sr.faulted);
      if (out.states.size() < 1000) out.states.push_back(state);
      episode.push_back({state, a, sr.reward, sr.state, sr.done, 0.0, false});
      state = std::move(sr.state);
      done = sr.done;
    }
    annotateMonteCarloReturns(episode, cfg.agent.gamma);
    out.records.push_back({0, ep, 1, 0, episode});
    for (Transition& t : episode) {
      out.replay->push(std::move(t));
      if (out.replay->size() >= agent.warmupThreshold() &&
          agent.stepsTaken() % cfg.agent.train_every == 0) {
        const auto batch = out.replay->sample(cfg.agent.batch_size, sample_rng);
        trace("rl.update", ep, [&] { return agent.trainOnBatch(batch); });
      }
    }
    out.episodes.push_back(std::move(record));
  }
  out.seconds = secondsBetween(t0, Clock::now());
  return out;
}

/// Replays the recorded episodes through the sub-layers env.step calls:
/// snapshot capture, the pass sequence, the fast verifier, the embedding
/// and both reward models, plus one snapshot restore per episode.
struct SubLayers {
  double capture_ns_per_instr = 0.0, restore_ns_per_instr = 0.0;
  double clone_ns_per_instr = 0.0, verify_ns_per_instr = 0.0;
  double changed_share = 0.0;
  double covered_us = 0.0;  ///< Sum of every span replayed per env step.
};

SubLayers replaySubLayers(const std::vector<const Module*>& corpus,
                          const TrainConfig& cfg,
                          const std::vector<Episode>& episodes, Spans& trace) {
  const std::vector<SubSequence>& actions = resolveTrainActions(cfg);
  const TargetInfo& target = TargetInfo::forArch(cfg.env.arch);
  const SizeModel size(target);
  const McaModel mca(target);
  const Embedder embedder(cfg.env.embedding);
  double capture_instrs = 0, restore_instrs = 0, clone_instrs = 0,
         verify_instrs = 0;
  std::size_t attempted = 0, changed = 0;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const Episode& ep = episodes[e];
    const Module& program = *corpus[ep.program];
    clone_instrs += static_cast<double>(program.instructionCount());
    std::unique_ptr<Module> m =
        trace("ir.clone", e, [&] { return cloneModule(program); });
    AnalysisManager am;
    FastVerifier verifier;
    ModuleSnapshot snap;
    for (std::size_t k = 0; k < ep.actions.size(); ++k) {
      // A faulted step was rolled back inside the sandbox; outside it the
      // same passes could abort the process, so the replay skips them.
      if (ep.faulted[k]) continue;
      capture_instrs += static_cast<double>(m->instructionCount());
      trace("ir.capture", e, [&] { snap.capture(*m); return 0; });
      const bool did = trace("passes.sequence", e, [&] {
        return runPassSequence(*m, actions[ep.actions[k]].passes);
      });
      ++attempted;
      changed += did ? 1 : 0;
      verify_instrs += static_cast<double>(m->instructionCount());
      trace("analysis.verify", e, [&] { return verifier.verify(*m, am).ok(); });
      trace("embed.embed", e, [&] { return embedder.embedProgram(*m); });
      trace("target.size", e, [&] { return size.objectBytes(*m); });
      trace("target.mca", e, [&] { return mca.moduleEstimate(*m); });
    }
    // Roll the last step back, as a fault or the next reset would.
    if (snap.valid()) {
      restore_instrs += static_cast<double>(snap.instructionCount());
      trace("ir.restore", e, [&] { snap.restoreInto(*m); return 0; });
    }
  }
  SubLayers out;
  const auto perInstr = [&](const char* name, double instrs) {
    return instrs > 0 ? trace.totalUs(name) * 1e3 / instrs : 0.0;
  };
  out.capture_ns_per_instr = perInstr("ir.capture", capture_instrs);
  out.restore_ns_per_instr = perInstr("ir.restore", restore_instrs);
  out.clone_ns_per_instr = perInstr("ir.clone", clone_instrs);
  out.verify_ns_per_instr = perInstr("analysis.verify", verify_instrs);
  out.changed_share = attempted == 0 ? 0.0
                                     : static_cast<double>(changed) /
                                           static_cast<double>(attempted);
  for (const char* name : {"ir.capture", "ir.restore", "passes.sequence",
                           "analysis.verify", "embed.embed", "target.size",
                           "target.mca"}) {
    out.covered_us += trace.totalUs(name);
  }
  return out;
}

double meanCallUs(int reps, const std::function<void()>& call) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) call();
  return 1e3 * millisBetween(t0, Clock::now()) / reps;
}

/// Learner kernels on the shapes of one update: batch x state_dim input
/// through the hidden layers to the action heads.
void traceLearner(const TrainLoop& loop, const TrainConfig& cfg,
                  Spans& trace, Report& report) {
  const DqnConfig& dqn = cfg.agent;
  const std::size_t b = dqn.batch_size;
  std::vector<std::size_t> sizes{dqn.state_dim};
  sizes.insert(sizes.end(), dqn.hidden.begin(), dqn.hidden.end());
  sizes.push_back(dqn.num_actions);

  Rng rng(cfg.seed);
  const std::vector<const Transition*> batch = loop.replay->sample(b, rng);
  Matrix x(b, dqn.state_dim);
  std::vector<std::size_t> actions(b);
  std::vector<double> targets(b);
  for (std::size_t i = 0; i < b; ++i) {
    std::copy(batch[i]->state.begin(), batch[i]->state.end(),
              x.data() + i * dqn.state_dim);
    actions[i] = batch[i]->action;
    targets[i] = batch[i]->mc_return;
  }
  Mlp net = loop.agent->onlineNet();
  report.add("rl.update_us", trace.meanUs("rl.update"), "us");
  report.add("rl.forward_batch_us",
             meanCallUs(kKernelReps, [&] { (void)net.forwardBatch(x); }), "us");
  report.add("rl.gradient_us", meanCallUs(kKernelReps, [&] {
               net.accumulateGradientBatch(x, actions, targets);
             }),
             "us");
  report.add("rl.adam_us",
             meanCallUs(kKernelReps, [&] { net.adamStep(dqn.lr, b); }), "us");
  std::size_t s = 0;
  report.add("rl.act_us", meanCallUs(static_cast<int>(loop.states.size()), [&] {
               (void)loop.agent->actGreedy(loop.states[s++]);
             }),
             "us");

  // GEMM rate on the first layer's three update shapes: forward (NT),
  // input-gradient propagation (NN) and weight gradient (TN).
  const std::size_t in = sizes[0], out = sizes[1];
  const Matrix w = Matrix::randomInit(out, in, rng);  // out x in
  const Matrix g = Matrix::randomInit(b, out, rng);   // b x out
  const double flops = 2.0 * static_cast<double>(b * in * out);
  const auto gflops = [&](const Matrix& a, bool ta, const Matrix& m, bool tb,
                          std::size_t rows, std::size_t cols) {
    Matrix c = Matrix::zeros(rows, cols);
    const double us = meanCallUs(kKernelReps, [&] { c.addMatMul(a, ta, m, tb); });
    return flops / us / 1e3;
  };
  report.add("rl.gemm_gflops_nt", gflops(x, false, w, true, b, out), "GFLOP/s");
  report.add("rl.gemm_gflops_nn", gflops(g, false, w, false, b, in), "GFLOP/s");
  report.add("rl.gemm_gflops_tn", gflops(g, true, x, false, out, in), "GFLOP/s");

  // One update from the tensor shapes: forward GEMMs, the backward weight
  // and input gradients (twice the forward), and Adam's elementwise pass;
  // bytes count each parameter-sized tensor streamed (weights read forward
  // and backward, gradient written, then weights, gradient and both Adam
  // moments read and written back) plus the batch activations.
  double macs = 0.0, params = 0.0, activations = 0.0;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    macs += static_cast<double>(sizes[l] * sizes[l + 1]);
    params += static_cast<double>(sizes[l] * sizes[l + 1] + sizes[l + 1]);
    activations += static_cast<double>(sizes[l + 1]);
  }
  const double bd = static_cast<double>(b);
  report.add("rl.update_flops", 6.0 * bd * macs + 12.0 * params, "flop");
  report.add("rl.update_bytes",
             8.0 * (bd * static_cast<double>(sizes[0]) + 2.0 * bd * activations +
                    10.0 * params),
             "B");
}

/// Appends the traced loop's episodes to a WAL configured like the online
/// learner's and splits the append cost into plain appends and the appends
/// that carried the batched fdatasync.
void traceWal(const TrainLoop& loop, const std::string& dir, Report& report) {
  const OnlineLearnerConfig service;
  std::filesystem::remove_all(dir);
  std::vector<double> plain, syncing;
  {
    TrajectoryWal wal({dir, service.wal_segment_bytes, service.wal_sync_every});
    for (std::size_t i = 0; i < kWalRecords; ++i) {
      const std::size_t syncs = wal.stats().syncs;
      const auto t0 = Clock::now();
      wal.append(loop.records[i % loop.records.size()]);
      const double us = 1e3 * millisBetween(t0, Clock::now());
      (wal.stats().syncs > syncs ? syncing : plain).push_back(us);
    }
  }
  std::filesystem::remove_all(dir);
  report.add("online.wal_append_us", mean(plain), "us");
  report.add("online.wal_sync_us",
             syncing.empty() ? 0.0 : std::max(0.0, mean(syncing) - mean(plain)),
             "us");
}

void addPhase(const char* phase, const PhaseRun& run, Report& report) {
  const std::string p = std::string("serve.") + phase + ".";
  report.add(p + "queue_p50_ms", median(run.queueMs()), "ms");
  report.add(p + "queue_p99_ms", percentile(run.queueMs(), 99.0), "ms");
  report.add(p + "service_p50_ms", median(run.serviceMs()), "ms");
  report.add(p + "service_p99_ms", percentile(run.serviceMs(), 99.0), "ms");
}

}  // namespace

void traceLayers(std::uint64_t seed, const Plan& plan,
                 const std::string& state_dir, Report& report, Tally& tally) {
  std::unique_ptr<Setup> setup = setUp(seed, plan, state_dir);
  tally.merge(checkServed(setup->warmup));
  const TrainConfig cfg = trainConfig(plan);
  const std::vector<const Module*> corpus = setup->inputs.trainView();

  // --- train layers: the step loop traced, bracketed by untraced twins ---
  NoSpans off;
  Spans trace;
  const double untraced_a = trainLoop(corpus, cfg, off).seconds;
  const TrainLoop loop = trainLoop(corpus, cfg, trace);
  const double untraced_b = trainLoop(corpus, cfg, off).seconds;
  const double untraced = 0.5 * (untraced_a + untraced_b);
  const SubLayers sub = replaySubLayers(corpus, cfg, loop.episodes, trace);

  const double step_us = trace.totalUs("core.step");
  const double loop_us = trace.totalUs("core.reset") + trace.totalUs("rl.act") +
                         step_us + trace.totalUs("rl.update");
  report.add("core.env_step_us", trace.meanUs("core.step"), "us");
  report.add("core.env_reset_us", trace.meanUs("core.reset"), "us");
  report.add("core.step_fault_share",
             static_cast<double>(loop.faulted_steps) /
                 static_cast<double>(loop.steps),
             "share");
  report.add("core.learner_share",
             trace.totalUs("rl.update") / (1e6 * loop.seconds), "share");
  report.add("core.closure_share", loop_us / (1e6 * untraced), "share");
  report.add("core.step_closure_share", sub.covered_us / step_us, "share");
  report.add("core.trace_overhead_pct", 100.0 * (loop.seconds - untraced) / untraced,
             "%");
  traceLearner(loop, cfg, trace, report);

  report.add("passes.sequence_us", trace.meanUs("passes.sequence"), "us");
  report.add("passes.changed_share", sub.changed_share, "share");
  for (const auto& m : setup->inputs.heldout) {
    std::unique_ptr<Module> copy = cloneModule(*m);
    trace("passes.oz", 0, [&] { return runPassSequence(*copy, ozPassNames()); });
  }
  report.add("passes.oz_ms", trace.meanUs("passes.oz") / 1e3, "ms");
  report.add("ir.snapshot_capture_ns_per_instr", sub.capture_ns_per_instr, "ns");
  report.add("ir.snapshot_restore_ns_per_instr", sub.restore_ns_per_instr, "ns");
  report.add("ir.clone_ns_per_instr", sub.clone_ns_per_instr, "ns");
  report.add("analysis.fast_verify_ns_per_instr", sub.verify_ns_per_instr, "ns");
  const TrainStats& ts = setup->train_stats;
  report.add("analysis.cache_hit_rate", ts.analysis.hitRate(), "share");
  report.add("analysis.contract_checks",
             static_cast<double>(ts.analysis.contract_checks), "count");
  report.add("embed.embed_us", trace.meanUs("embed.embed"), "us");
  const std::size_t lookups = ts.embed_cache.hits + ts.embed_cache.misses;
  report.add("embed.cache_hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(ts.embed_cache.hits) /
                                static_cast<double>(lookups),
             "share");
  report.add("target.size_model_us", trace.meanUs("target.size"), "us");
  report.add("target.mca_model_us", trace.meanUs("target.mca"), "us");

  // --- serve layers: the measured phases, then a replay of the light ---
  // phase's requests through the rungs a worker runs.
  const ServePhases phases = runServePhases(*setup, plan, tally);
  Deployment& deployment = *setup->deployment;
  deployment.stop();
  addPhase("light", phases.light, report);
  addPhase("heavy", phases.heavy, report);
  addPhase("saturated", phases.saturated, report);

  // The rungs as a worker runs them: the greedy rollout in the sandboxed
  // environment, stock -Oz in the sandbox with the verifier and contract
  // checks, and one clone of the request.
  const std::vector<SubSequence>& actions = resolveTrainActions(cfg);
  SandboxConfig oz_sandbox = cfg.env.sandbox;
  oz_sandbox.verify = cfg.env.verify_actions;
  oz_sandbox.contracts = cfg.env.check_contracts;
  const auto replayRungs = [&](auto& t) {
    const auto t0 = Clock::now();
    for (const Served& s : phases.light.served) {
      const std::uint64_t id = s.result.request_id;
      t("serve.rollout", id,
        [&] { return applyPolicy(*setup->agent, *s.input, actions, cfg.env); });
      std::unique_ptr<Module> copy =
          t("serve.clone", id, [&] { return cloneModule(*s.input); });
      t("serve.oz", id, [&] {
        return runActionSandboxed(copy, ozPassNames(), oz_sandbox).ok;
      });
    }
    return secondsBetween(t0, Clock::now());
  };
  const double rungs_untraced_a = replayRungs(off);
  const double rungs_traced = replayRungs(trace);
  const double rungs_untraced =
      0.5 * (rungs_untraced_a + replayRungs(off));
  const double rollout_ms = trace.meanUs("serve.rollout") / 1e3;
  const double oz_ms = trace.meanUs("serve.oz") / 1e3;
  const double clone_ms = trace.meanUs("serve.clone") / 1e3;
  const double service_ms = mean(phases.light.serviceMs());
  report.add("serve.rollout_ms", rollout_ms, "ms");
  report.add("serve.oz_ms", oz_ms, "ms");
  report.add("serve.clone_ms", clone_ms, "ms");
  report.add("serve.overhead_ms", service_ms - rollout_ms - oz_ms - clone_ms,
             "ms");
  report.add("serve.closure_share", (rollout_ms + oz_ms + clone_ms) / service_ms,
             "share");
  report.add("serve.trace_overhead_pct",
             100.0 * (rungs_traced - rungs_untraced) / rungs_untraced, "%");

  const InferenceBatcher::Stats batcher = deployment.service().batcherStats();
  report.add("serve.batch_mean",
             batcher.batches == 0 ? 0.0
                                  : static_cast<double>(batcher.calls) /
                                        static_cast<double>(batcher.batches),
             "count");
  report.add("serve.max_batch", static_cast<double>(batcher.max_batch), "count");
  const ServiceStats stats = deployment.service().stats();
  const double completed = static_cast<double>(std::max<std::size_t>(1, stats.completed));
  report.add("serve.level_full_share", stats.level_full / completed, "share");
  report.add("serve.level_prefix_share", stats.level_prefix / completed, "share");
  report.add("serve.level_oz_share", stats.level_oz / completed, "share");
  report.add("serve.level_identity_share", stats.level_identity / completed,
             "share");
  report.add("serve.generator_late_ms",
             std::max(phases.light.max_late_ms, phases.heavy.max_late_ms), "ms");

  // --- online layer ---
  traceWal(loop, state_dir + "-wal", report);
  OnlineStats online;
  double swap_us = 0.0;
  if (OnlineLearner* learner = deployment.learner()) {
    online = learner->stats();
    swap_us = learner->registryStats().last_publish_us;
  }
  report.add("online.ingested_episodes",
             static_cast<double>(online.ingested_episodes), "count");
  report.add("online.trained_batches", static_cast<double>(online.trained_batches),
             "count");
  report.add("online.promotions", static_cast<double>(online.promotions), "count");
  report.add("online.rejections", static_cast<double>(online.rejections), "count");
  report.add("online.ingest_dropped", static_cast<double>(online.ingest_dropped),
             "count");
  report.add("online.swap_us", swap_us, "us");
}

}  // namespace perfbench
