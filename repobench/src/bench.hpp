/// Shared pieces of the repository benchmark: run options, the result each
/// workload fills, wall clocks, the span tracer, allocation counting and the
/// small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span file
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `info` holds
/// informational values (simulated clock, simulated statistics) that are
/// printed but not compared.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< output-check failures, by description
  std::vector<Metric> metrics;
  std::vector<Metric> info;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit = "") {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  void error(std::string what) {
    if (errors.size() < 20)
      errors.push_back(std::move(what));
  }
};

// -- clocks -------------------------------------------------------------------
using Clock = std::chrono::steady_clock;
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch()).count());
}
inline double seconds_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

// -- statistics -----------------------------------------------------------------
/// Quantile q in [0,1] by linear interpolation; sorts `v` in place. 0 if empty.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// -- host noise -------------------------------------------------------------------
/// Moves the calling thread round-robin over the CPUs the process may run on.
/// On a shared host each CPU's speed depends on what other tenants run on
/// the cores next to it, and that changes from minute to minute. A phase
/// that visits every CPU sees the quiet ones as well as the busy ones, so
/// its figures depend less on which CPU the scheduler happened to pick.
/// The destructor gives the thread every CPU back.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

private:
  const std::vector<int>& cpus_;
  size_t at_ = 0;
};

/// Length of the slices a timed phase is cut into: the thread moves to the
/// next CPU at each slice, and where every slice does the same work the
/// fastest slice is reported (see README.md).
constexpr double kSliceSeconds = 0.5;

// -- process memory -------------------------------------------------------------
/// Resident set now / peak resident set (VmRSS / VmHWM), in bytes.
std::uint64_t rss_bytes();
std::uint64_t peak_rss_bytes();

// -- allocation counting ----------------------------------------------------------
// Global operator new is replaced in this binary only (alloc_count.cpp); it
// counts calls while counting is on, which only the traced run turns on.
namespace alloc {
void set_counting(bool on);
std::uint64_t count();
}  // namespace alloc

// -- tracing ----------------------------------------------------------------------
/// In-memory span tracer for the benchmark's own calls into each layer.
/// Spans nest through a stack (the benchmark is single-threaded), every
/// closed span is folded into a per-name aggregate (count, total, time
/// covered by children) and the first kMaxRawSpans are kept verbatim for
/// the span file. Counter-derived children — time a layer reports about
/// itself, such as the engine's solve phase — are attached to a named
/// aggregate with derive(), so the self times of the tree still sum to the
/// root's wall time.
class Tracer {
public:
  static constexpr size_t kMaxRawSpans = 100000;

  Tracer() {
    spans_.reserve(kMaxRawSpans);  // no allocation inside a traced window
    stack_.reserve(16);
  }

  struct Span {
    std::uint32_t name;
    std::int32_t parent;  ///< index into spans(), -1 for a root or a dropped parent
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Aggregate {
    std::string name;
    std::string parent;  ///< name of the enclosing span ("" for roots)
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t child_ns = 0;
    bool derived = false;  ///< from a layer's own counters, not from a span
    std::uint64_t self_ns() const { return total_ns > child_ns ? total_ns - child_ns : 0; }
  };

  /// Intern a span name once; the id is what begin() takes on hot paths.
  std::uint32_t name_id(const std::string& name);
  void begin(std::uint32_t name);
  /// Close the innermost open span; returns its duration.
  std::uint64_t end();
  /// Attach `ns` of counter-derived time as a child of aggregate `parent`.
  void derive(const std::string& name, const std::string& parent, std::uint64_t ns,
              std::uint64_t count);

  const std::vector<Aggregate>& aggregates() const { return aggs_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped_spans() const { return dropped_; }
  const std::string& name(std::uint32_t id) const { return aggs_[id].name; }
  const Aggregate* find(const std::string& name) const;

private:
  struct Open {
    std::uint32_t name;
    std::int32_t index;  ///< raw span slot, -1 if dropped
    std::uint64_t start_ns;
  };
  std::vector<Aggregate> aggs_;  ///< indexed by name id
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
};

}  // namespace rb
