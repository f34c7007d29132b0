// perfbench: the repo's end-to-end benchmark driver.
//
//   perfbench --workload {analyze,tune,stack,fleet} --seed N --seconds S
//             --trace {0,1} [--spans PATH]
//
// Sets the workload up several times (setup_s is the median), then runs
// timed passes of a fixed amount of work until S seconds have gone by,
// checks the outputs, and prints one JSON object as the last stdout line.
// Set-up and passes are timed in process CPU time, which leaves out the
// time the process waits for a CPU. pass_cost divides a pass's CPU time by
// that of a fixed reference kernel run beside it, so a host that is slower
// for minutes at a time slows both. Wall time is reported beside them.
// With --trace 0 it reports the end-to-end metrics of untraced passes;
// with --trace 1 it alternates traced and untraced passes and reports the
// per-layer split from the spans (written to PATH at exit when given).
// See README.md.
// pscrub-lint: allow-file(wall-clock)
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "examples/arg_parse.h"

namespace perfbench {
namespace {

// setup_s is the median of kSetupSamples samples. A sample repeats the
// workload's set-up until kSetupSampleS of CPU time has gone by and takes
// the mean, so a set-up of microseconds is timed as steadily as one of a
// second.
constexpr int kSetupSamples = 9;
constexpr double kSetupSampleS = 0.02;
constexpr std::size_t kMinUntracedPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
// Reference-kernel samples taken before each pass.
constexpr int kReferenceSamples = 3;

// Variables that change what the library does (tracing and timelines
// push the policy simulator off its batched path and force sweeps
// serial) or how much work it does (bench scale, sweep workers).
constexpr const char* kForbiddenEnv[] = {
    "PSCRUB_TRACE", "PSCRUB_TIMELINE", "PSCRUB_METRICS",
    "PSCRUB_BENCH_SCALE", "PSCRUB_SWEEP_WORKERS"};

enum class Source {
  kSpan, kDerived, kCount, kOutput, kCoverage, kOverhead,
  kCpu, kWall, kWorkRate
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
};

// The per-layer metrics, reported on every workload (0 where the workload
// does not call the layer). Span metrics are the median over traced
// passes of the summed self time of the spans named without "_s"; host.*
// are medians over the untraced passes of the same run.
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.calibrate_s", "s", Source::kSpan},
    {"trace.generate_s", "s", Source::kSpan},
    {"trace.idle_extract_s", "s", Source::kDerived},
    {"trace.records", "count", Source::kCount},
    {"stats.summarize_s", "s", Source::kSpan},
    {"stats.residual_s", "s", Source::kSpan},
    {"stats.acf_s", "s", Source::kSpan},
    {"stats.anova_s", "s", Source::kSpan},
    {"core.services_s", "s", Source::kSpan},
    {"core.decomp_s", "s", Source::kSpan},
    {"core.decomp_intervals", "count", Source::kCount},
    {"core.optimize_s", "s", Source::kSpan},
    {"core.policy_sim_s", "s", Source::kSpan},
    {"core.policy_runs", "count", Source::kCount},
    {"exp.scenario_setup_s", "s", Source::kSpan},
    {"sim.run_s", "s", Source::kSpan},
    {"sim.events", "count", Source::kCount},
    {"block.requests", "count", Source::kCount},
    {"block.collisions", "count", Source::kCount},
    {"block.retries", "count", Source::kCount},
    {"scrub.collision_ratio", "ratio", Source::kCount},
    {"disk.verify_s", "s", Source::kSpan},
    {"fault.injected_sectors", "count", Source::kCount},
    {"fault.detections", "count", Source::kCount},
    {"raid.run_s", "s", Source::kSpan},
    {"fleet.run_s", "s", Source::kSpan},
    {"fleet.disks", "count", Source::kCount},
    {"daemon.run_s", "s", Source::kSpan},
    {"daemon.events", "count", Source::kCount},
    {"daemon.checkpoint_write_s", "s", Source::kSpan},
    {"daemon.checkpoint_bytes", "count", Source::kCount},
    {"daemon.resume_s", "s", Source::kSpan},
    {"daemon.throttle_ratio", "ratio", Source::kCount},
    {"out.idle_fit_err", "ratio", Source::kOutput},
    {"out.scrub_mb_s", "MB/s", Source::kOutput},
    {"out.fg_p50_ms", "ms", Source::kOutput},
    {"out.fg_p99_ms", "ms", Source::kOutput},
    {"out.mlet_h", "h", Source::kOutput},
    {"tracing.coverage", "ratio", Source::kCoverage},
    {"tracing.overhead_s", "s", Source::kOverhead},
    {"host.cpu_s", "s", Source::kCpu},
    {"host.wall_s", "s", Source::kWall},
    {"host.work_per_cpu_s", "1/s", Source::kWorkRate},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{analyze,tune,stack,fleet} --seed N --seconds S --trace {0,1} "
               "[--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      const long long v = pscrub::examples::parse_ll(value, "--seed");
      if (v < 0) usage("--seed takes a non-negative integer");
      a.seed = static_cast<std::uint64_t>(v);
      have[1] = true;
    } else if (flag == "--seconds") {
      const long long v = pscrub::examples::parse_ll(value, "--seconds");
      if (v < 1 || v > 3600) usage("--seconds takes an integer in [1, 3600]");
      a.seconds = static_cast<double>(v);
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = value[0] == '1';
      have[3] = true;
    } else if (flag == "--spans") {
      a.spans_path = value;

    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// Only checks presence; nothing is parsed or passed on.
// pscrub-lint: env-shim
void refuse_instrumented_environment() {
  bool refused = false;
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "program being measured; unset it\n",
                   name);
      refused = true;
    }
  }
  if (refused) std::exit(2);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "analyze") return make_analyze();
  if (name == "tune") return make_tune();
  if (name == "stack") return make_stack();
  if (name == "fleet") return make_fleet();
  usage(("unknown workload " + name).c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// CPU time of all the process's threads. On a shared VM the wall time of
/// the same pass moves by up to 2x with the load of other guests (steal
/// time) and of other processes in this one; CPU time leaves both out.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A fixed amount of CPU work that calls no library code: sorting, hash
/// lookups and transcendental math, about 85 ms on a 4-vCPU VM, with a
/// working set that fits in L2. Its CPU time is the unit of pass_cost, so
/// a change to src/ moves pass_cost and cannot move the unit. Returns a
/// value that depends on all of the work, so none of it is optimized away.
std::uint64_t reference_kernel() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::uint64_t h = 0;
  std::vector<std::uint64_t> v(1 << 16);
  for (int round = 0; round < 8; ++round) {
    for (auto& e : v) e = next();
    std::sort(v.begin(), v.end());
    h += v[v.size() / 2];
  }
  std::unordered_map<std::uint64_t, std::uint32_t> m;
  for (std::uint32_t i = 0; i < (1u << 14); ++i) m[next() & 0xffff] += i;
  for (std::uint32_t i = 0; i < (1u << 19); ++i) {
    auto it = m.find(next() & 0xffff);
    if (it != m.end()) h += it->second;
  }
  double acc = 0.0;
  for (std::uint32_t i = 0; i < (1u << 19); ++i) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53 + 1e-300;
    acc += -std::log(u) * std::exp(-acc * 1e-9);
  }
  return h + static_cast<std::uint64_t>(acc);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Moves the constructing thread round-robin over the CPUs it may run on,
/// one every kPeriod, until destroyed. The vCPUs of a shared VM run at
/// speeds that differ by up to ~20% at one moment and drift over minutes;
/// spreading a single-threaded pass over all of them times the average
/// CPU instead of whichever one the scheduler happened to keep it on.
/// Only for single-threaded passes: threads inherit the creator's mask.
class CpuRotation {
 public:
  CpuRotation() : target_(pthread_self()) {
    CPU_ZERO(&allowed_);
    if (pthread_getaffinity_np(target_, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    thread_ = std::thread([this] { rotate(); });
  }
  ~CpuRotation() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    pthread_setaffinity_np(target_, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  static constexpr std::chrono::milliseconds kPeriod{20};

  void rotate() {
    for (std::size_t i = 0; !stop_.load(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof(one), &one);
      std::this_thread::sleep_for(kPeriod);
    }
  }

  pthread_t target_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Self time per span name of one traced pass, plus the share of the root
/// span covered by its children.
struct PassSplit {
  std::map<std::string, double> self_s;
  double coverage = 0.0;
};

PassSplit split(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  PassSplit out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.self_s[spans[i].name] += self[i];
  }
  const double root = spans.front().end - spans.front().start;
  out.coverage = root > 0.0 ? 1.0 - self.front() / root : 0.0;
  return out;
}

void write_spans(const std::string& path, const Args& args,
                 const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"passes\": [",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  const auto& passes = tracer.passes();
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::fprintf(f, "%s\n [", p == 0 ? "" : ",");
    for (std::size_t i = 0; i < passes[p].size(); ++i) {
      const Tracer::Span& s = passes[p][i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %d}",
                   i == 0 ? "" : ", ", s.name, s.start, s.end, s.parent);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  // Set-up is single-threaded on every workload, so it is rotated too.
  auto rotation = std::make_unique<CpuRotation>();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    // Batches double, so reading the CPU clock (a system call) costs
    // little beside a set-up of microseconds.
    int repeats = 0;
    double elapsed = 0.0;
    const double t0 = process_cpu_s();
    for (int batch = 1; elapsed < kSetupSampleS; batch *= 2) {
      for (int k = 0; k < batch; ++k) w->setup(args.seed);
      repeats += batch;
      elapsed = process_cpu_s() - t0;
    }
    setup_s.push_back(elapsed / repeats);
  }

  if (w->parallel()) rotation.reset();

  // One untimed pass first: lazy set-up inside the library and the
  // allocator's first growth are paid before timing starts. Its simulated
  // outputs are still checked against every timed pass.
  Tracer tracer;
  std::vector<std::uint64_t> digests;
  {
    tracer.begin_pass(false);
    Pass warmup(tracer);
    w->pass(warmup);
    digests.push_back(warmup.digest.value());
  }
  // Peak memory of set-up and one pass. Later passes only add allocator
  // fragmentation, which grows with the number of passes a run fits in.
  const double rss_mb = peak_rss_mb();

  std::vector<double> untraced_cpu_s;
  std::vector<double> traced_cpu_s;
  std::vector<double> untraced_wall_s;
  std::vector<double> work_per_cpu_s;
  std::vector<double> reference_cpu_s;
  std::uint64_t reference_sink = 0;
  std::map<std::string, std::vector<double>> derived;
  std::map<std::string, double> counts;
  std::map<std::string, double> outputs;
  const Clock::time_point start = Clock::now();
  for (std::size_t index = 0;; ++index) {
    const bool traced = args.trace && index % 2 == 1;
    tracer.begin_pass(traced);
    Pass p(tracer);
    for (int i = 0; i < kReferenceSamples; ++i) {
      const double r0 = process_cpu_s();
      reference_sink += reference_kernel();
      reference_cpu_s.push_back(process_cpu_s() - r0);
    }
    const Clock::time_point t0 = Clock::now();
    const double c0 = process_cpu_s();
    {
      Scope root(tracer, "pass");
      w->pass(p);
    }
    const double cpu = process_cpu_s() - c0;
    const double wall = seconds_between(t0, Clock::now());
    if (traced) {
      traced_cpu_s.push_back(cpu);
      w->after_traced_pass(p);
      for (const auto& [name, v] : p.derived) derived[name].push_back(v);
    } else {
      untraced_cpu_s.push_back(cpu);
      untraced_wall_s.push_back(wall);
      work_per_cpu_s.push_back(p.work / cpu);
    }
    if (index == 0) {
      counts = p.counts;
      outputs = p.outputs;
    }
    digests.push_back(p.digest.value());
    const bool enough =
        untraced_cpu_s.size() >= kMinUntracedPasses &&
        (!args.trace || traced_cpu_s.size() >= kMinTracedPasses);
    if (enough && seconds_between(start, Clock::now()) >= args.seconds) break;
  }
  rotation.reset();

  Checks checks;
  for (std::size_t i = 1; i < digests.size(); ++i) {  // 0 is the warm-up
    checks.expect(digests[i] == digests.front(),
                  "pass " + std::to_string(i) +
                      " simulated outputs differ from the warm-up pass");
  }
  w->check(checks);

  std::printf("perfbench %s seed=%llu passes=%zu traced=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              untraced_cpu_s.size() + traced_cpu_s.size(),
              traced_cpu_s.size());
  std::printf("untraced pass cpu s:");
  for (double v : untraced_cpu_s) std::printf(" %.4f", v);
  std::printf("\nuntraced pass wall s:");
  for (double v : untraced_wall_s) std::printf(" %.4f", v);
  std::printf("\nreference kernel cpu s:");
  for (double v : reference_cpu_s) std::printf(" %.4f", v);
  std::printf(" (checksum %llu)",
              static_cast<unsigned long long>(reference_sink % 1000));
  std::printf("\ntraced pass cpu s:");
  for (double v : traced_cpu_s) std::printf(" %.4f", v);
  std::printf("\n");
  std::printf("digest %s %016llx\n", args.workload.c_str(),
              static_cast<unsigned long long>(digests.front()));
  for (const auto& [name, v] : outputs) {
    std::printf("%s = %.6g (simulated; %s)\n", name.c_str(), v,
                name == "out.idle_fit_err"
                    ? "validated against the paper's Tables I-II only"
                    : "no reference result, unvalidated");
  }
  std::printf("checks %lld attempted, %lld failed\n",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"pass_cost", median(untraced_cpu_s) /
                                        median(reference_cpu_s),
                       "ref"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    std::map<std::string, std::vector<double>> self_s;
    std::vector<double> coverage;
    for (const std::vector<Tracer::Span>& spans : tracer.passes()) {
      const PassSplit s = split(spans);
      for (const LayerMetric& m : kLayerMetrics) {
        if (m.source != Source::kSpan) continue;
        const std::string span(m.name, std::strlen(m.name) - 2);
        const auto it = s.self_s.find(span);
        self_s[m.name].push_back(it == s.self_s.end() ? 0.0 : it->second);
      }
      coverage.push_back(s.coverage);
    }
    for (const LayerMetric& m : kLayerMetrics) {
      double v = 0.0;
      switch (m.source) {
        case Source::kSpan:
          v = median(self_s[m.name]);
          break;
        case Source::kDerived:
          v = median(derived[m.name]);
          break;
        case Source::kCount:
          v = counts[m.name];
          break;
        case Source::kOutput:
          v = outputs[m.name];
          break;
        case Source::kCoverage:
          v = median(coverage);
          break;
        case Source::kOverhead:
          v = median(traced_cpu_s) - median(untraced_cpu_s);
          break;
        case Source::kCpu:
          v = median(untraced_cpu_s);
          break;
        case Source::kWall:
          v = median(untraced_wall_s);
          break;
        case Source::kWorkRate:
          v = median(work_per_cpu_s);
          break;
      }
      metrics.push_back({m.name, v, m.unit});
    }
    if (!args.spans_path.empty()) write_spans(args.spans_path, args, tracer);
  }
  for (const Metric& m : metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::refuse_instrumented_environment();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
