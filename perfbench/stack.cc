// Workload `stack`: the event-driven exp::Scenario matrix (Figs 1-7).
// Closed-loop synthetic foreground (sequential 8 MB chunks, or random
// 64 KB reads; one outstanding request each) runs under a back-to-back
// CFQ Idle-class scrubber and under a staggered Waiting scrubber; one
// scenario injects latent and transient errors with host retries on; one
// scrubs a RAID 4+1 array; one replays the busiest hour of a catalog disk
// trace open-loop. Sequential VERIFY probes at the Fig 1 / Fig 4 sizes
// close the pass.
//
// The replay window is generated during set-up, so the timed passes do no
// trace generation: sim, disk, block, workload, fault and raid do the work.
// pscrub-lint: allow-file(wall-clock)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "pscrub.h"

namespace perfbench {
namespace {

using namespace pscrub;

// A HP Cello home-directory disk; its nightly backup spike makes the
// busiest hour several times the mean load while staying far from
// saturation on the reference drive.
constexpr const char* kReplayTrace = "HPc6t5d0";
constexpr SimTime kReplayDrain = 10 * kMinute;
constexpr SimTime kSyntheticRun = 30 * kMinute;
constexpr SimTime kRaidRun = 30 * kMinute;
// RAID foreground reads stop this long before the horizon, so every read
// issued has completed when the run ends.
constexpr SimTime kRaidQuiet = kMinute;

struct Case {
  exp::ScenarioConfig config;
  bool replay = false;
};

/// Busiest clock hour of `full`, re-based to start at 0.
trace::Trace busiest_hour(const trace::Trace& full) {
  const std::vector<double> hourly = full.hourly_counts();
  const auto peak = static_cast<SimTime>(
      std::max_element(hourly.begin(), hourly.end()) - hourly.begin());
  trace::Trace window;
  window.name = full.name + ".busiest_hour";
  window.duration = kHour;
  for (const trace::TraceRecord& r : full.records) {
    if (r.arrival / kHour != peak) continue;
    trace::TraceRecord shifted = r;
    shifted.arrival -= peak * kHour;
    window.records.push_back(shifted);
  }
  return window;
}

exp::ScenarioConfig synthetic(const char* label, exp::WorkloadKind workload,
                              bool waiting, std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.label = label;
  cfg.disk.seed = mix_seed(1, seed);
  cfg.scheduler = exp::SchedulerKind::kCfq;
  cfg.workload.kind = workload;
  cfg.workload.seed = mix_seed(42, seed);
  if (waiting) {
    cfg.scrubber.kind = exp::ScrubberKind::kWaiting;
    cfg.scrubber.strategy.kind = exp::StrategyKind::kStaggered;
    cfg.scrubber.strategy.request_bytes = 512 * 1024;
    cfg.scrubber.wait_threshold = 50 * kMillisecond;
  } else {
    cfg.scrubber.kind = exp::ScrubberKind::kBackToBack;
    cfg.scrubber.priority = block::IoPriority::kIdle;
    cfg.scrubber.strategy.request_bytes = 64 * 1024;
  }
  cfg.run_for = kSyntheticRun;
  return cfg;
}

class Stack : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    {
      trace::SyntheticGenerator gen(catalog_window(kReplayTrace, 1, seed));
      replay_ = busiest_hour(gen.generate_trace());
    }
    cases_.clear();
    using WK = exp::WorkloadKind;
    cases_.push_back({synthetic("seq.b2b", WK::kSequentialChunks, false, seed)});
    cases_.push_back({synthetic("seq.wait", WK::kSequentialChunks, true, seed)});
    cases_.push_back({synthetic("rand.b2b", WK::kRandomReads, false, seed)});
    cases_.push_back({synthetic("rand.wait", WK::kRandomReads, true, seed)});
    {
      // Latent-error bursts plus transient errors, enterprise error
      // recovery capped at 100 ms, host retries on (bench_fault_injection's
      // "ERC, retry" case without the host timeout).
      exp::ScenarioConfig cfg =
          synthetic("fault", WK::kRandomReads, false, seed);
      cfg.disk.capacity_bytes = 256LL << 20;
      cfg.workload.synthetic.think_mean = 250 * kMillisecond;
      cfg.scrubber.strategy.request_bytes = 256 * 1024;
      cfg.fault.enabled = true;
      cfg.fault.seed = mix_seed(2012, seed);
      cfg.fault.lse.burst_interarrival_mean = 20 * kSecond;
      cfg.fault.lse.extra_errors_per_burst_mean = 5.0;
      cfg.fault.lse_horizon = 2 * kMinute;
      cfg.fault.error_model.erc_timeout = 100 * kMillisecond;
      cfg.fault.error_model.transient_error_prob = 0.01;
      cfg.retry.max_retries = 3;
      cfg.retry.backoff_base = 10 * kMillisecond;
      cfg.run_for = 10 * kMinute;
      cases_.push_back({cfg});
    }
    {
      exp::ScenarioConfig cfg;
      cfg.label = "raid";
      cfg.disk.capacity_bytes = 1LL << 30;
      cfg.disk.seed = mix_seed(1, seed);
      cfg.raid.enabled = true;
      cfg.raid.data_disks = 4;
      cfg.raid.parity_disks = 1;
      cfg.raid.seed = mix_seed(2024, seed);
      cfg.scrubber.kind = exp::ScrubberKind::kWaiting;
      cfg.scrubber.strategy.request_bytes = 512 * 1024;
      cfg.scrubber.wait_threshold = 50 * kMillisecond;
      cfg.fault.enabled = true;
      cfg.fault.seed = mix_seed(7, seed);
      cfg.fault.lse.burst_interarrival_mean = kMinute;
      cfg.fault.lse_horizon = kRaidRun / 2;
      cfg.run_for = kRaidRun;
      cases_.push_back({cfg});
    }
    {
      exp::ScenarioConfig cfg;
      cfg.label = "replay";
      cfg.disk.seed = mix_seed(1, seed);
      cfg.scheduler = exp::SchedulerKind::kCfq;
      cfg.workload.kind = WK::kTraceReplay;
      cfg.workload.trace = &replay_;
      cfg.scrubber.kind = exp::ScrubberKind::kWaiting;
      cfg.scrubber.strategy.kind = exp::StrategyKind::kStaggered;
      cfg.scrubber.strategy.request_bytes = 512 * 1024;
      cfg.scrubber.wait_threshold = 50 * kMillisecond;
      cfg.run_for = replay_.duration + kReplayDrain;
      cases_.push_back({cfg, true});
    }
  }

  void pass(Pass& p) override {
    Tracer& t = p.tracer;
    items_.clear();
    std::int64_t collisions = 0;
    std::int64_t scrub_requests = 0;
    for (const Case& c : cases_) {
      const exp::ScenarioConfig& cfg = c.config;
      // Counters outlive the scenario whose callbacks bump them.
      std::int64_t fg_issued = 0;
      std::int64_t raid_issued = 0;
      std::int64_t raid_done = 0;
      std::unique_ptr<exp::Scenario> sc;
      {
        Scope s(t, "exp.scenario_setup");
        sc = std::make_unique<exp::Scenario>(cfg);
      }
      if (!sc->has_raid()) {
        sc->block().set_request_observer(
            [&fg_issued](const block::BlockRequest&) { ++fg_issued; });
      }
      std::size_t events = 0;
      if (sc->has_raid()) {
        Scope s(t, "raid.run");
        events = run_raid(*sc, &raid_issued, &raid_done);
      } else {
        Scope s(t, "sim.run");
        sc->start();
        events = sc->sim().run_until(cfg.run_for);
      }
      p.counts["sim.events"] += static_cast<double>(events);
      p.work += static_cast<double>(events);
      p.digest.add(static_cast<std::int64_t>(events));

      if (sc->has_raid()) {
        expect(raid_issued == raid_done, cfg.label +
                                             ": RAID reads issued " +
                                             std::to_string(raid_issued) +
                                             ", completed " +
                                             std::to_string(raid_done));
      } else {
        // Closed-loop workloads keep at most one request outstanding; the
        // replay has drained when the run ends.
        const block::BlockLayerStats& bs = sc->block().stats();
        const std::int64_t done = sc->workload_metrics()->requests.value();
        const std::int64_t pending = fg_issued - done;
        expect(pending >= 0 && pending <= (c.replay ? 0 : 1),
               cfg.label + ": " + std::to_string(fg_issued) +
                   " foreground requests issued, " + std::to_string(done) +
                   " completions");
        if (c.replay) {
          const auto records = static_cast<std::int64_t>(replay_.size());
          expect(fg_issued == records,
                 cfg.label + ": " + std::to_string(records) +
                     " trace records, " + std::to_string(fg_issued) +
                     " requests issued");
          // The replay issues each request at its trace arrival, so the
          // block latency is the response time from the request's due time.
          const obs::LatencyHistogram& lat = sc->workload_metrics()->latency;
          const double p50 = to_seconds(lat.p50()) * 1e3;
          const double p99 = to_seconds(lat.p99()) * 1e3;
          p.outputs["out.fg_p50_ms"] = p50;
          p.outputs["out.fg_p99_ms"] = p99;
          p.digest.add(p50);
          p.digest.add(p99);
        }
        p.counts["block.requests"] += static_cast<double>(bs.completed);
        collisions += bs.collisions;
      }
      const exp::ScenarioResult r = sc->take_result();
      scrub_requests += sc->has_raid() ? 0 : r.scrub_requests;
      p.counts["block.retries"] += static_cast<double>(r.io_retries);
      p.counts["fault.injected_sectors"] +=
          static_cast<double>(r.fault_injected_sectors);
      p.counts["fault.detections"] += static_cast<double>(r.fault_detections);
      p.digest.add(r.workload_requests);
      p.digest.add(r.workload_bytes);
      p.digest.add(r.workload_mean_latency_ms);
      p.digest.add(r.scrub_requests);
      p.digest.add(r.scrub_bytes);
      p.digest.add(r.collisions);
      p.digest.add(r.collision_delay_sum);
      p.digest.add(r.io_errors);
      p.digest.add(r.io_retries);
      p.digest.add(r.fault_injected_sectors);
      p.digest.add(r.fault_detections);
      p.digest.add(r.raid_lost_sectors);
    }
    p.counts["block.collisions"] = static_cast<double>(collisions);
    p.counts["scrub.collision_ratio"] =
        scrub_requests > 0 ? static_cast<double>(collisions) /
                                 static_cast<double>(scrub_requests)
                           : 0.0;
    {
      Scope s(t, "disk.verify");
      verify(p.digest);
    }
  }

  void check(Checks& c) override {
    c.expect(!replay_.empty(), "replay window is empty");
    for (const auto& [ok, what] : items_) c.expect(ok, what);
  }

 private:
  /// Records a check made during the pass; check() reports the last
  /// pass's items.
  void expect(bool ok, const std::string& what) { items_.emplace_back(ok, what); }

  /// Runs the RAID scenario with a light foreground: a 64 KB array read
  /// every ~200 ms on average through raid().read(). Reads stop kRaidQuiet
  /// before the horizon, so no read chain is left pending when this
  /// returns and its locals go away.
  std::size_t run_raid(exp::Scenario& sc, std::int64_t* issued,
                       std::int64_t* done) {
    Simulator& sim = sc.sim();
    raid::RaidArray& array = sc.raid();
    const SimTime stop = sc.config().run_for - kRaidQuiet;
    Rng rng(mix_seed(99, seed_));
    std::function<void()> next_read = [&] {
      if (sim.now() >= stop) return;
      const std::int64_t sectors = 128;
      array.read(rng.uniform_int(0, array.array_sectors() - sectors - 1),
                 sectors, [done](SimTime) { ++*done; });
      ++*issued;
      sim.after(from_seconds(rng.exponential(0.2)), next_read);
    };
    sim.after(0, next_read);
    sc.start();
    return sim.run_until(sc.config().run_for);
  }

  /// Mean response of back-to-back sequential VERIFYs: SCSI VERIFY on the
  /// Fig 4 drives at 1K..16M, ATA VERIFY with the cache off and on on the
  /// Fig 1 SATA drives at 1K..64K.
  static void verify(Digest& d) {
    const disk::DiskProfile scsi[] = {disk::hitachi_ultrastar_15k450(),
                                      disk::fujitsu_max3073rc(),
                                      disk::fujitsu_map3367np()};
    for (const disk::DiskProfile& prof : scsi) {
      for (std::int64_t bytes = 1024; bytes <= 16 << 20; bytes *= 2) {
        d.add(exp::measure_sequential_verify(
            prof, disk::CommandKind::kVerifyScsi, bytes));
      }
    }
    for (disk::DiskProfile prof : {disk::wd_caviar(), disk::hitachi_deskstar()}) {
      for (bool cache : {false, true}) {
        prof.cache_enabled = cache;
        for (std::int64_t bytes = 1024; bytes <= 64 << 10; bytes *= 2) {
          d.add(exp::measure_sequential_verify(
              prof, disk::CommandKind::kVerifyAta, bytes));
        }
      }
    }
  }

  std::uint64_t seed_ = 0;
  trace::Trace replay_;
  std::vector<Case> cases_;
  std::vector<std::pair<bool, std::string>> items_;
};

}  // namespace

std::unique_ptr<Workload> make_stack() { return std::make_unique<Stack>(); }

}  // namespace perfbench
