// Shared harness of the perfbench driver: host-time spans recorded in
// memory around calls into the library, per-pass counts, the digest of
// every simulated result, and the correctness tally.
//
// Host time is measured here, in the benchmark, never inside the library,
// so nothing of it reaches stdout tables, PSCRUB_METRICS or
// PSCRUB_TIMELINE.
// pscrub-lint: allow-file(wall-clock)
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/sweep.h"
#include "trace/catalog.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Mixes the benchmark seed into a component seed (splitmix64, the same
/// derivation the sweep runner uses per task).
inline std::uint64_t mix_seed(std::uint64_t base, std::uint64_t seed) {
  return pscrub::exp::task_seed(base, static_cast<std::size_t>(seed));
}

/// Catalog trace `name` with the benchmark seed mixed into its seed. A
/// trace recorded over a week is cut to `days` days at the same request
/// density (target scaled by days / 7); shorter traces stay whole.
inline pscrub::trace::TraceSpec catalog_window(const char* name, int days,
                                               std::uint64_t seed) {
  auto spec = pscrub::trace::spec_by_name(name);
  if (!spec) throw std::runtime_error(std::string("unknown trace ") + name);
  spec->seed = mix_seed(spec->seed, seed);
  if (spec->duration == pscrub::kWeek) {
    spec->duration = days * pscrub::kDay;
    spec->target_requests = spec->target_requests * days / 7;
  }
  return *spec;
}

/// In-memory span recorder. While disabled, opening a span is one branch.
/// Spans of one pass form a tree: each records the span open when it
/// started as its parent.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     // index into the same pass; -1 for the root
  };

  /// Starts a new pass; spans are recorded only when `enabled`.
  void begin_pass(bool enabled) {
    enabled_ = enabled;
    stack_.clear();
    if (enabled_) passes_.emplace_back();
  }
  bool enabled() const { return enabled_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    std::vector<Span>& spans = passes_.back();
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans.push_back(s);
    const int id = static_cast<int>(spans.size()) - 1;
    stack_.push_back(id);
    spans.back().start = now();  // last, so set-up cost stays outside
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    const double t = now();
    passes_.back()[static_cast<std::size_t>(id)].end = t;
    stack_.pop_back();
  }

  /// Recorded spans, one vector per traced pass.
  const std::vector<std::vector<Span>>& passes() const { return passes_; }

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::vector<Span>> passes_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// FNV-1a over the simulated results of a pass, folded in a fixed order.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// What one timed pass produces besides its host time.
struct Pass {
  explicit Pass(Tracer& t) : tracer(t) {}
  Tracer& tracer;
  /// Work units of the pass (the numerator of work_per_cpu_s).
  double work = 0.0;
  /// Per-layer counts and ratios, keyed by per-layer metric name.
  std::map<std::string, double> counts;
  /// Simulated outputs reported by name (out.*), deterministic per seed.
  std::map<std::string, double> outputs;
  /// Host-time metrics derived by the workload itself (traced passes).
  std::map<std::string, double> derived;
  Digest digest;
};

/// Correctness tally: one attempted item per check, one failure per item.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// One workload: set-up (timed several times), a fixed amount of work per
/// pass (timed repeatedly), and checks of its outputs (untimed).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed. May run several times; each call
  /// replaces the previous inputs.
  virtual void setup(std::uint64_t seed) = 0;
  /// One timed pass. Must produce the same digest every time.
  virtual void pass(Pass& p) = 0;
  /// Extra measurements of a traced pass, run after it and outside its
  /// root span (default: none).
  virtual void after_traced_pass(Pass&) {}
  /// Correctness checks of the outputs, run once after the passes.
  virtual void check(Checks& c) = 0;
  /// True when a pass runs on more than one thread.
  virtual bool parallel() const { return false; }
};

std::unique_ptr<Workload> make_analyze();
std::unique_ptr<Workload> make_tune();
std::unique_ptr<Workload> make_stack();
std::unique_ptr<Workload> make_fleet();

}  // namespace perfbench
