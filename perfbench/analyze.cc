// Workload `analyze`: the Table II / Figs 9-13 path. Streams catalog
// traces record by record into trace::IdleAccumulator (no trace is
// materialized) while counting requests per hour, then runs the stats
// layer on the idle intervals: summary (Table II), residual life (Figs
// 10-13), autocorrelation, and ANOVA period detection (Fig 9).
//
// Traces: one bursty heavy trace (MSRusr1), one heavy-tail trace
// (HPc6t8d0) and one memoryless trace (TPCdisk66). The heaviest-tailed
// specs (HPc6t5d1, MSRproj2) are left out: on one-day windows their
// calibration misses the Table I volume band for some seeds, which would
// fail the volume check (see README.md). The weekly traces are
// cut to one day at their full request density, and each trace is
// generated as kRealizations independent realizations (sub-seeds of the
// benchmark seed). The generator's calibration needs one to four dry runs
// depending on the seed; averaging over several realizations keeps a
// pass's work nearly the same for every seed. The hourly counts of the
// realizations are scanned back to back for periods up to a day.
// pscrub-lint: allow-file(wall-clock)
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "bench/common.h"

namespace perfbench {
namespace {

using namespace pscrub;

struct TraceCase {
  const char* name;
  // Table II of the paper (the values bench_table2_idle_stats prints).
  double paper_mean_s;
  double paper_cov;
};

constexpr TraceCase kCases[] = {
    {"MSRusr1", 0.0997, 8.6516},
    {"HPc6t8d0", 0.1502, 13.845},
    {"TPCdisk66", 0.0014, 0.8608},
};
constexpr int kCaseCount = sizeof(kCases) / sizeof(kCases[0]);
constexpr int kDays = 1;
constexpr int kRealizations = 2;
// Table I volume band the catalog calibration documents (EXPERIMENTS.md).
constexpr double kVolumeLow = 0.91;
constexpr double kVolumeHigh = 1.11;
constexpr std::size_t kAcfLags = 50;
constexpr std::size_t kMaxPeriodHours = 24;

class Analyze : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    specs_.clear();
    for (const TraceCase& c : kCases) {
      for (int r = 0; r < kRealizations; ++r) {
        specs_.push_back(catalog_window(c.name, kDays, mix_seed(seed, r)));
      }
    }
  }

  void pass(Pass& p) override {
    Tracer& t = p.tracer;
    gens_.clear();
    generate_s_.assign(specs_.size(), 0.0);
    records_.assign(specs_.size(), 0);
    double fit_err = 0.0;
    for (int c = 0; c < kCaseCount; ++c) {
      std::vector<double> hourly;
      for (int r = 0; r < kRealizations; ++r) {
        const auto k = static_cast<std::size_t>(c * kRealizations + r);
        fit_err += realization(p, k, kCases[c], &hourly);
      }
      if (hourly.size() >= 2 * kMaxPeriodHours) {
        Scope s(t, "stats.anova");
        const stats::PeriodResult pr =
            stats::detect_period(hourly, kMaxPeriodHours);
        p.digest.add(static_cast<std::int64_t>(pr.period_hours));
        p.digest.add(pr.f_statistic);
      }
    }
    // Mean |log(generated / paper)| over the Table II idle mean and CoV.
    p.outputs["out.idle_fit_err"] = fit_err / (2.0 * specs_.size());
  }

  void after_traced_pass(Pass& p) override {
    // The same record streams into a sink that only bins arrivals by
    // hour: the difference to the pass's accumulator run is the host time
    // of idle extraction alone.
    double extract_s = 0.0;
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      std::vector<double> hourly(hours(specs_[k]), 0.0);
      const Clock::time_point t0 = Clock::now();
      gens_[k]->generate([&](const trace::TraceRecord& r) {
        hourly[static_cast<std::size_t>(r.arrival / kHour)] += 1.0;
      });
      extract_s += generate_s_[k] - seconds_between(t0, Clock::now());
    }
    p.derived["trace.idle_extract_s"] = extract_s;
  }

  void check(Checks& c) override {
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const trace::TraceSpec& spec = specs_[k];
      const double ratio = static_cast<double>(records_[k]) /
                           static_cast<double>(spec.target_requests);
      c.expect(ratio >= kVolumeLow && ratio <= kVolumeHigh,
               spec.name + " volume " + std::to_string(ratio) +
                   "x target, outside the Table I band");
    }
  }

 private:
  /// Streams realization `k` and runs the stats layer on its idle
  /// intervals; appends its hourly counts to `hourly` and returns its
  /// Table II fit error (|log| of the mean ratio plus the CoV ratio).
  double realization(Pass& p, std::size_t k, const TraceCase& c,
                     std::vector<double>* hourly) {
    Tracer& t = p.tracer;
    const trace::TraceSpec& spec = specs_[k];
    {
      Scope s(t, "trace.calibrate");
      gens_.push_back(std::make_unique<trace::SyntheticGenerator>(spec));
    }
    trace::IdleAccumulator acc(bench::recorded_service_model(spec));
    const std::size_t first_hour = hourly->size();
    hourly->resize(first_hour + hours(spec), 0.0);
    std::vector<double> idles;
    {
      Scope s(t, "trace.generate");
      const Clock::time_point t0 = Clock::now();
      records_[k] = gens_.back()->generate([&](const trace::TraceRecord& r) {
        acc.add(r);
        (*hourly)[first_hour + static_cast<std::size_t>(r.arrival / kHour)] +=
            1.0;
      });
      idles = acc.finish().idle_seconds;
      generate_s_[k] = seconds_between(t0, Clock::now());
    }
    p.work += static_cast<double>(records_[k]);
    p.counts["trace.records"] += static_cast<double>(records_[k]);
    p.digest.add(records_[k]);

    stats::Summary sum;
    {
      Scope s(t, "stats.summarize");
      sum = stats::summarize(idles);
    }
    p.digest.add(static_cast<std::int64_t>(sum.count));
    p.digest.add(sum.mean);
    p.digest.add(sum.variance);
    p.digest.add(sum.cov);
    {
      Scope s(t, "stats.residual");
      const stats::ResidualLife life(idles);
      for (double frac : {0.01, 0.05, 0.1}) {
        p.digest.add(life.tail_weight(frac));
      }
      for (double x : {0.01, 0.1, 1.0, 10.0}) {
        p.digest.add(life.mean_residual(x));
        p.digest.add(life.residual_quantile(x, 0.01));
        p.digest.add(life.usable_fraction(x));
      }
    }
    {
      Scope s(t, "stats.acf");
      for (double v : stats::acf(idles, kAcfLags)) p.digest.add(v);
    }
    return std::fabs(std::log(sum.mean / c.paper_mean_s)) +
           std::fabs(std::log(sum.cov / c.paper_cov));
  }

  static std::size_t hours(const trace::TraceSpec& spec) {
    return static_cast<std::size_t>((spec.duration + kHour - 1) / kHour);
  }

  std::vector<trace::TraceSpec> specs_;
  std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens_;
  std::vector<double> generate_s_;
  std::vector<std::int64_t> records_;
};

}  // namespace

std::unique_ptr<Workload> make_analyze() { return std::make_unique<Analyze>(); }

}  // namespace perfbench
