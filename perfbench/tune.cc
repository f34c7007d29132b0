// Workload `tune`: the Table III / Fig 14 path. Materializes two thinned
// catalog traces with generate_trace(scale) -- which calibrates the full
// volume in the generator's constructor, then calibrates the thinned
// spec again and discards the first -- precomputes foreground service
// times, builds the idle decomposition, and runs core::optimize at the
// 1, 2 and 4 ms slowdown goals on the shared decomposition. Last, a Fig-14
// policy set (Waiting, Lossless Waiting, AR, AR+Waiting) runs through
// exp::run_policy_scenarios on one trace.
//
// The weekly traces are cut to one day at full density, then thinned to at
// most kMaxRecords records, as bench_table3_optimizer thins its week. Each
// trace is generated as kRealizations independent realizations (sub-seeds
// of the benchmark seed), so that the seed-dependent number of calibration
// dry runs averages out and a pass's work is nearly the same for every
// seed.
// pscrub-lint: allow-file(wall-clock)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "pscrub.h"

namespace perfbench {
namespace {

using namespace pscrub;

constexpr const char* kTraces[] = {"MSRusr1", "HPc6t8d0"};
constexpr int kRealizations = 2;
// The policy set runs on the first realization of HPc6t8d0, Fig 14's disk
// with many short idle intervals.
constexpr std::size_t kPolicyRun = 1 * kRealizations;
constexpr int kDays = 1;
constexpr std::int64_t kMaxRecords = 750'000;
constexpr double kGoalsMs[] = {1.0, 2.0, 4.0};
constexpr int kGoalCount = 3;
// Pinned, never derived from the host or PSCRUB_SWEEP_WORKERS. Serial:
// fleet is the workload for parallel sweeps, and one worker keeps this
// pass's host time and peak memory free of thread-scheduling noise.
constexpr int kWorkers = 1;

bool same_result(const core::PolicySimResult& a,
                 const core::PolicySimResult& b) {
  return a.foreground_requests == b.foreground_requests &&
         a.collisions == b.collisions &&
         a.collision_rate == b.collision_rate &&
         a.total_idle == b.total_idle && a.idle_utilized == b.idle_utilized &&
         a.idle_utilization == b.idle_utilization &&
         a.scrub_requests == b.scrub_requests &&
         a.scrubbed_bytes == b.scrubbed_bytes && a.scrub_mb_s == b.scrub_mb_s &&
         a.slowdown_sum == b.slowdown_sum &&
         a.slowdown_max == b.slowdown_max &&
         a.mean_slowdown_ms == b.mean_slowdown_ms;
}

void fold(Digest& d, const core::PolicySimResult& r) {
  d.add(r.foreground_requests);
  d.add(r.collisions);
  d.add(r.idle_utilized);
  d.add(r.scrub_requests);
  d.add(r.scrubbed_bytes);
  d.add(r.slowdown_sum);
  d.add(r.slowdown_max);
  d.add(r.mean_slowdown_ms);
}

class Tune : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    specs_.clear();
    for (const char* name : kTraces) {
      for (int r = 0; r < kRealizations; ++r) {
        specs_.push_back(catalog_window(name, kDays, mix_seed(seed, r)));
      }
    }
    profile_ = disk::hitachi_ultrastar_15k450();
    policies_.clear();
    for (SimTime th : {64 * kMillisecond, 1024 * kMillisecond}) {
      exp::PolicySpec w;
      w.kind = exp::PolicyKind::kWaiting;
      w.threshold = th;
      policies_.push_back(w);
      exp::PolicySpec lossless = w;
      lossless.kind = exp::PolicyKind::kLosslessWaiting;
      policies_.push_back(lossless);
      exp::PolicySpec ar;
      ar.kind = exp::PolicyKind::kAutoRegression;
      ar.threshold = th;
      ar.ar_window = 4096;
      ar.ar_refit_every = 1024;
      ar.ar_max_order = 8;
      policies_.push_back(ar);
      exp::PolicySpec ar_wait = w;
      ar_wait.kind = exp::PolicyKind::kArWaiting;
      ar_wait.secondary = 256 * kMillisecond;
      policies_.push_back(ar_wait);
    }
  }

  void pass(Pass& p) override {
    Tracer& t = p.tracer;
    const std::size_t runs = specs_.size();
    traces_.assign(runs, {});
    services_.assign(runs, {});
    decomps_.assign(runs, {});
    choices_.assign(runs, {});
    double mb_s_at_1ms = 0.0;
    for (std::size_t k = 0; k < runs; ++k) {
      const trace::TraceSpec& spec = specs_[k];
      const double scale =
          std::min(1.0, static_cast<double>(kMaxRecords) /
                            static_cast<double>(spec.target_requests));
      std::unique_ptr<trace::SyntheticGenerator> gen;
      {
        Scope s(t, "trace.calibrate");
        gen = std::make_unique<trace::SyntheticGenerator>(spec);
      }
      {
        Scope s(t, "trace.generate");
        traces_[k] = gen->generate_trace(scale);
      }
      const trace::Trace& tr = traces_[k];
      {
        Scope s(t, "core.services");
        services_[k] = core::precompute_services(
            tr, core::make_foreground_service(profile_));
      }
      {
        Scope s(t, "core.decomp");
        decomps_[k] = core::IdleDecomposition::from_trace(tr, services_[k]);
      }
      p.work += static_cast<double>(tr.size());
      p.counts["trace.records"] += static_cast<double>(tr.size());
      p.counts["core.decomp_intervals"] +=
          static_cast<double>(decomps_[k].interval_count());
      p.digest.add(static_cast<std::int64_t>(tr.size()));
      p.digest.add(decomps_[k].interval_count());
      p.digest.add(decomps_[k].total_gap_idle());

      core::OptimizerConfig oc;
      oc.scrub_service = core::make_scrub_service(profile_);
      oc.services = &services_[k];
      oc.decomposition = &decomps_[k];
      oc.binary_search_iters = 9;
      oc.workers = kWorkers;
      for (double goal_ms : kGoalsMs) {
        core::SlowdownGoal goal;
        goal.mean = from_seconds(goal_ms * 1e-3);
        core::SizeThresholdChoice c;
        {
          Scope s(t, "core.optimize");
          c = core::optimize(tr, oc, goal);
        }
        choices_[k].push_back(c);
        p.digest.add(c.request_bytes);
        p.digest.add(c.threshold);
        p.digest.add(c.scrub_mb_s);
        p.digest.add(c.achieved_mean_slowdown_ms);
      }
      mb_s_at_1ms += choices_[k][0].scrub_mb_s;

      if (k == kPolicyRun) {
        std::vector<exp::PolicySimScenario> scenarios;
        for (const exp::PolicySpec& spec_p : policies_) {
          exp::PolicySimScenario s;
          s.trace = &tr;
          s.services = &services_[k];
          s.policy = spec_p;
          s.sizer = core::ScrubSizer::fixed(64 * 1024);
          scenarios.push_back(std::move(s));
        }
        exp::SweepOptions options;
        options.workers = kWorkers;
        std::vector<core::PolicySimResult> results;
        {
          Scope s(t, "core.policy_sim");
          results = exp::run_policy_scenarios(scenarios, options);
        }
        p.counts["core.policy_runs"] += static_cast<double>(results.size());
        for (const core::PolicySimResult& r : results) fold(p.digest, r);
      }
    }
    p.outputs["out.scrub_mb_s"] = mb_s_at_1ms / static_cast<double>(runs);
  }

  void check(Checks& c) override {
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const std::string& name = specs_[k].name;
      for (int g = 0; g < kGoalCount; ++g) {
        const core::SizeThresholdChoice& ch =
            choices_[k][static_cast<std::size_t>(g)];
        c.expect(ch.achieved_mean_slowdown_ms <= kGoalsMs[g],
                 name + " optimizer missed the " +
                     std::to_string(kGoalsMs[g]) + " ms goal");
        // The batched probe the optimizer used, against the full replay.
        const core::PolicySimResult batched = core::run_waiting_single(
            decomps_[k],
            core::make_waiting_grid_request(profile_, ch.request_bytes),
            ch.threshold);
        core::WaitingPolicy policy(ch.threshold);
        core::PolicySimConfig cfg;
        cfg.scrub_service = core::make_scrub_service(profile_);
        cfg.sizer = core::ScrubSizer::fixed(ch.request_bytes);
        cfg.services = &services_[k];
        const core::PolicySimResult reference =
            core::run_policy_sim_reference(traces_[k], policy, cfg);
        c.expect(same_result(batched, reference),
                 name + " run_waiting_single differs from the reference replay");
      }
    }
  }

 private:
  std::vector<trace::TraceSpec> specs_;
  disk::DiskProfile profile_;
  std::vector<exp::PolicySpec> policies_;
  std::vector<trace::Trace> traces_;
  std::vector<std::vector<SimTime>> services_;
  std::vector<core::IdleDecomposition> decomps_;
  std::vector<std::vector<core::SizeThresholdChoice>> choices_;
};

}  // namespace

std::unique_ptr<Workload> make_tune() { return std::make_unique<Tune>(); }

}  // namespace perfbench
