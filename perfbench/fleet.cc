// Workload `fleet`: fleet::run_fleet over 10^5 member disks, staggered
// and sequential, with latent-error faults on, fanned across a pinned
// exp::sweep worker pool; then a pscrubd daemon::Daemon of a few hundred
// devices with the operator client and periodic checkpoints, killed half
// way and resumed through serialize_checkpoint -> parse_checkpoint ->
// restore in a fresh simulator. This is the only workload that runs the
// fleet layer, parallel sweeps, and the event queue's persistent re-armed
// events at scale.
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

constexpr std::int64_t kFleetDisks = 100'000;
// Pinned, never derived from the host or PSCRUB_SWEEP_WORKERS.
constexpr int kWorkers = 4;
constexpr std::int64_t kDaemonDevices = 256;
constexpr std::int64_t kSampledMembers = 16;

exp::ScenarioConfig fleet_config(bool staggered, std::uint64_t seed) {
  exp::ScenarioConfig config;
  config.label = staggered ? "fleet.stag" : "fleet.seq";
  config.disk.capacity_bytes = 32LL << 30;
  config.scrubber.kind = exp::ScrubberKind::kWaiting;
  config.scrubber.strategy.kind = staggered ? exp::StrategyKind::kStaggered
                                            : exp::StrategyKind::kSequential;
  config.scrubber.strategy.request_bytes = 64 * 1024;
  config.scrubber.strategy.regions = 128;
  config.run_for = 90 * kDay;
  config.fleet.disks = kFleetDisks;
  config.fleet.pacing.request_service = 150 * kMillisecond;
  config.fleet.util_min = 0.2;
  config.fleet.util_max = 0.6;
  config.fleet.util_seed = mix_seed(11, seed);
  config.fault.enabled = true;
  config.fault.seed = mix_seed(7, seed);
  config.fault.lse.burst_interarrival_mean = 10 * kDay;
  config.fault.lse.burst_span_bytes = 64LL << 20;
  return config;
}

exp::ScenarioConfig daemon_config(std::uint64_t seed) {
  exp::ScenarioConfig config;
  config.label = "pscrubd";
  config.disk.capacity_bytes = 2LL << 30;
  config.scrubber.kind = exp::ScrubberKind::kWaiting;
  config.scrubber.strategy.kind = exp::StrategyKind::kSequential;
  config.scrubber.strategy.request_bytes = 256 * 1024;
  config.run_for = 30 * kMinute;
  config.daemon.devices = kDaemonDevices;
  config.daemon.util_min = 0.2;
  config.daemon.util_max = 0.5;
  config.daemon.util_seed = mix_seed(11, seed);
  config.daemon.target_passes = 1;
  config.daemon.rate_sectors_per_s = 400'000;
  config.daemon.checkpoint_interval = kMinute;
  config.daemon.client_commands = 500;
  config.daemon.client_interval = config.run_for / 500;
  config.daemon.client_seed = mix_seed(23, seed);
  // Pace a pass to ~60% of the horizon at a 25% scrub duty cycle (the
  // pscrubd_sim pacing recipe).
  const disk::DiskProfile p = config.disk.profile();
  const std::int64_t total_sectors =
      disk::Geometry(p.capacity_bytes, p.outer_spt, p.inner_spt, p.zones)
          .total_sectors();
  const std::int64_t request_sectors =
      disk::sectors_from_bytes(config.scrubber.strategy.request_bytes);
  const std::int64_t steps =
      (total_sectors + request_sectors - 1) / request_sectors;
  const SimTime step = std::max<SimTime>(config.run_for * 6 / (10 * steps), 8);
  config.daemon.pacing.request_service = step / 4;
  config.daemon.pacing.request_spacing = step - step / 4;
  config.fault.enabled = true;
  config.fault.seed = mix_seed(7, seed);
  config.fault.lse.burst_interarrival_mean = 10 * kMinute;
  config.fault.lse.burst_span_bytes = 64LL << 20;
  return config;
}

void fold_aggregates(Digest& d, const fleet::FleetResult& r) {
  d.add(r.disks);
  d.add(r.total_bursts);
  d.add(r.total_errors);
  d.add(r.fleet_mlet_hours);
  d.add(r.worst_mlet_hours);
  d.add(r.mean_slowdown);
  for (const obs::QuantileDigest* q :
       {&r.mlet_hours, &r.completion_hours, &r.utilization, &r.slowdown}) {
    d.add(q->p50());
    d.add(q->p99());
  }
}

/// Aggregates plus every per-disk array: the worker-count invariance
/// contract is bit-identity of the whole result.
std::uint64_t full_digest(const fleet::FleetResult& r) {
  Digest d;
  fold_aggregates(d, r);
  const fleet::FleetState& s = r.state;
  for (std::size_t i = 0; i < s.utilization.size(); ++i) {
    d.add(s.utilization[i]);
    d.add(s.effective_step[i]);
    d.add(s.pass_duration[i]);
    d.add(s.bursts[i]);
    d.add(s.errors[i]);
    d.add(s.delay_sum_hours[i]);
    d.add(s.mlet_hours[i]);
    d.add(s.worst_hours[i]);
    d.add(s.slowdown[i]);
    d.add(s.passes[i]);
    d.add(s.progress[i]);
  }
  return d.value();
}

/// One incarnation of the control plane (the simulator outlives the
/// daemon, as in daemon::run_daemon).
struct World {
  explicit World(const exp::ScenarioConfig& config)
      : daemon(sim, config, nullptr) {}
  Simulator sim;
  daemon::Daemon daemon;
};

class Fleet : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    fleets_ = {fleet_config(true, seed), fleet_config(false, seed)};
    daemon_ = daemon_config(seed);
  }

  void pass(Pass& p) override {
    Tracer& t = p.tracer;
    results_.clear();
    exp::SweepOptions options;
    options.workers = kWorkers;
    for (const exp::ScenarioConfig& cfg : fleets_) {
      {
        Scope s(t, "fleet.run");
        results_.push_back(fleet::run_fleet(cfg, options));
      }
      const fleet::FleetResult& r = results_.back();
      fold_aggregates(p.digest, r);
      p.counts["fleet.disks"] += static_cast<double>(r.disks);
      p.work += static_cast<double>(r.disks);
    }
    p.outputs["out.mlet_h"] = results_.front().fleet_mlet_hours;

    const SimTime horizon = daemon_.run_for;
    std::size_t events = 0;
    auto world = std::make_unique<World>(daemon_);
    {
      Scope s(t, "daemon.run");
      world->daemon.start();
      events += world->sim.run_until(horizon / 2);
    }
    std::string text;
    {
      Scope s(t, "daemon.checkpoint_write");
      text = daemon::serialize_checkpoint(world->daemon.snapshot());
    }
    {
      Scope s(t, "daemon.resume");
      const daemon::Checkpoint ck = daemon::parse_checkpoint(text);
      world = std::make_unique<World>(daemon_);
      world->sim.at(ck.now, [] {});
      world->sim.run_until(ck.now);
      world->daemon.restore(ck);
    }
    {
      Scope s(t, "daemon.run");
      events += world->sim.run_until(horizon);
    }
    resumed_ = world->daemon.result();
    p.counts["daemon.events"] += static_cast<double>(events);
    p.counts["daemon.checkpoint_bytes"] += static_cast<double>(text.size());
    p.counts["daemon.throttle_ratio"] =
        resumed_.extents > 0 ? static_cast<double>(resumed_.throttle_waits) /
                                   static_cast<double>(resumed_.extents)
                             : 0.0;
    p.digest.add(static_cast<std::int64_t>(events));
    p.digest.add(daemon::render_daemon_result(resumed_));
    p.digest.add(resumed_.status_checksum);
  }

  bool parallel() const override { return true; }

  void check(Checks& c) override {
    exp::SweepOptions serial;
    serial.workers = 1;
    for (std::size_t f = 0; f < fleets_.size(); ++f) {
      const exp::ScenarioConfig& cfg = fleets_[f];
      const fleet::FleetResult& r = results_[f];
      c.expect(full_digest(fleet::run_fleet(cfg, serial)) == full_digest(r),
               cfg.label + ": 1-worker fleet differs from the " +
                   std::to_string(kWorkers) + "-worker fleet");
      for (std::int64_t k = 0; k < kSampledMembers; ++k) {
        const std::int64_t i = k * (r.disks / kSampledMembers) + k;
        const auto u = static_cast<std::size_t>(i);
        const fleet::MemberResult m = fleet::run_member(cfg, i);
        const fleet::FleetState& s = r.state;
        c.expect(s.utilization[u] == m.utilization &&
                     s.effective_step[u] == m.effective_step &&
                     s.slowdown[u] == m.slowdown &&
                     s.errors[u] == m.mlet.errors &&
                     s.mlet_hours[u] == m.mlet.mlet_hours &&
                     s.worst_hours[u] == m.mlet.worst_hours,
                 cfg.label + ": disk " + std::to_string(i) +
                     " differs from fleet::run_member");
      }
    }
    World whole(daemon_);
    whole.daemon.start();
    whole.sim.run_until(daemon_.run_for);
    const daemon::DaemonResult uninterrupted = whole.daemon.result();
    c.expect(daemon::render_daemon_result(uninterrupted) ==
                     daemon::render_daemon_result(resumed_) &&
                 uninterrupted.status_checksum == resumed_.status_checksum &&
                 uninterrupted.checkpoints == resumed_.checkpoints,
             "resumed daemon differs from the uninterrupted run");
  }

 private:
  std::vector<exp::ScenarioConfig> fleets_;
  exp::ScenarioConfig daemon_;
  std::vector<fleet::FleetResult> results_;
  daemon::DaemonResult resumed_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet() { return std::make_unique<Fleet>(); }

}  // namespace perfbench
