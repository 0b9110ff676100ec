/// repobench — the repository benchmark.
///
///   repobench --workload <flows_local|flows_wan|actor_pingpong|gras_lan>
///             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
///
/// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
/// runs an untraced reference window and then a traced one, prints the
/// per-layer metrics and the layer self-time table, and writes the spans to
/// <out-dir>/trace_<workload>_<seed>.json. The last line of standard output
/// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// It holds the metrics the workload produced; run.py orders them, checks
/// their units and fills the rest from BENCHMARK.json, the one list of
/// metric names.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace rb {
namespace {

// -- JSON output ------------------------------------------------------------------
std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\')
      o += '\\';
    if (static_cast<unsigned char>(c) < 0x20)
      c = ' ';
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// -- machine descriptor -----------------------------------------------------------
double spin(std::uint64_t n) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return static_cast<double>(x & 0xFFFF);
}

struct Machine {
  long nproc = 0;
  long affinity_cpus = 0;
  double effective_parallelism = 0;
};

/// nproc, the CPUs this process may run on, and the throughput those CPUs
/// really give: the same spin loop alone and then on one thread per CPU
/// (effective parallelism = threads x single time / fan-out time).
Machine describe_machine() {
  Machine m;
  m.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  m.affinity_cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : m.nproc;
  const long lanes = std::max(1L, std::min(m.affinity_cpus, 16L));
  constexpr std::uint64_t kSpin = 20'000'000;
  const std::uint64_t t0 = now_ns();
  double sink = spin(kSpin);
  const std::uint64_t t1 = now_ns();
  std::vector<double> out(static_cast<size_t>(lanes));
  std::vector<std::thread> threads;
  for (long i = 0; i < lanes; ++i)
    threads.emplace_back([&out, i] { out[static_cast<size_t>(i)] = spin(kSpin + static_cast<std::uint64_t>(i)); });
  for (auto& t : threads)
    t.join();
  const std::uint64_t t2 = now_ns();
  for (double v : out)
    sink += v;
  m.effective_parallelism = static_cast<double>(lanes) * static_cast<double>(t1 - t0) /
                            static_cast<double>(t2 - t1) + (sink < 0 ? 1 : 0);
  return m;
}

std::string machine_json(const Machine& m) {
  return "{\"nproc\": " + std::to_string(m.nproc) +
         ", \"affinity_cpus\": " + std::to_string(m.affinity_cpus) +
         ", \"compiler\": " + json_str(REPOBENCH_COMPILER) +
         ", \"build_type\": " + json_str(REPOBENCH_BUILD_TYPE) +
         ", \"effective_parallelism\": " + json_num(m.effective_parallelism) + "}";
}

// -- end-to-end probes ----------------------------------------------------------------
/// Thirty of gras_lan's 0.1 s slices, half before set-up and half after the
/// timed phase: spread over the whole run, they are likelier to catch a
/// quiet moment of the host.
constexpr double kCodecProbeSeconds = 3.0;

/// Codec timings for a workload whose timed phase does not produce them:
/// every run must report every end-to-end metric, so these rows repeat
/// gras_lan's measurement. The probe uses a small message pool so it does
/// not set the peak resident set.
void report_codec_probe(const std::vector<GrasLatency>& slices, Result& r) {
  const GrasLatency g = best_of(slices);
  r.metric("same_arch_us_p50", g.same_arch_us_p50, "us");
  r.metric("cross_arch_us_p50", g.cross_arch_us_p50, "us");
  r.metric("exchange_us_p99", g.exchange_us_p99, "us");
  r.note("probe_exchange_samples", static_cast<double>(g.samples), "count");
  if (g.failed > 0)
    r.error("codec probe: decoded messages differ");
}

// -- traced-run report ------------------------------------------------------------------
std::string layer_of(const std::string& span, const std::string& root) {
  if (span == root)
    return "unattributed";
  return span.substr(0, span.find('.'));
}

/// Layer self times from the tracer; the root's own self time is the
/// unattributed remainder, so the table sums to the traced wall exactly.
std::map<std::string, std::uint64_t> layer_self_ns(const TraceRun& t) {
  std::map<std::string, std::uint64_t> self;
  for (const auto& a : t.tracer.aggregates())
    self[layer_of(a.name, t.root)] += a.self_ns();
  return self;
}

void write_trace_file(const Options& opt, const TraceRun& t, const Result& r,
                      const std::map<std::string, std::uint64_t>& self, std::uint64_t wall_ns,
                      const std::string& machine) {
  if (opt.out_dir.empty())
    return;
  if (mkdir(opt.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.out_dir.c_str(), std::strerror(errno));
    return;
  }
  const std::string path = opt.out_dir + "/trace_" + opt.workload + "_" + std::to_string(opt.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"machine\": %s,\n", json_str(opt.workload).c_str(),
               static_cast<unsigned long long>(opt.seed), machine.c_str());
  std::fprintf(f, " \"traced_wall_ns\": %llu, \"trace_overhead\": %s,\n",
               static_cast<unsigned long long>(wall_ns),
               json_num(t.traced_ns_per_op / t.untraced_ns_per_op).c_str());
  std::fprintf(f, " \"layer_self_ns\": {");
  const char* sep = "";
  for (const auto& [layer, ns] : self) {
    std::fprintf(f, "%s%s: %llu", sep, json_str(layer).c_str(), static_cast<unsigned long long>(ns));
    sep = ", ";
  }
  std::fprintf(f, "},\n \"per_layer\": {");
  sep = "";
  for (const auto& m : r.metrics) {
    std::fprintf(f, "%s%s: %s", sep, json_str(m.name).c_str(), json_num(m.value).c_str());
    sep = ", ";
  }
  std::fprintf(f, "},\n \"aggregates\": [");
  sep = "";
  for (const auto& a : t.tracer.aggregates()) {
    std::fprintf(f, "%s\n  {\"name\": %s, \"parent\": %s, \"derived\": %s, \"count\": %llu, "
                 "\"total_ns\": %llu, \"self_ns\": %llu}",
                 sep, json_str(a.name).c_str(), json_str(a.parent).c_str(), a.derived ? "true" : "false",
                 static_cast<unsigned long long>(a.count), static_cast<unsigned long long>(a.total_ns),
                 static_cast<unsigned long long>(a.self_ns()));
    sep = ",";
  }
  std::fprintf(f, "],\n \"span_fields\": [\"name\", \"parent\", \"start_ns\", \"end_ns\"],\n");
  std::fprintf(f, " \"spans_dropped\": %llu,\n \"spans\": [",
               static_cast<unsigned long long>(t.tracer.dropped_spans()));
  const auto& spans = t.tracer.spans();
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f, "%s[%s, %d, %llu, %llu]", i == 0 ? "\n  " : ",\n  ",
                 json_str(t.tracer.name(s.name)).c_str(), s.parent,
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("trace written to %s\n", path.c_str());
}

/// Layer table + self shares + overhead. Per-layer metrics of layers the
/// workload does not exercise are left out; run.py reports them as 0.
void finish_traced(const Options& opt, TraceRun& t, Result& r, const std::string& machine) {
  const Tracer::Aggregate* root = t.tracer.find(t.root);
  const std::uint64_t wall = root != nullptr ? root->total_ns : 0;
  const auto self = layer_self_ns(t);
  std::uint64_t sum = 0;
  std::printf("%-14s %16s %8s\n", "layer", "self ns", "share");
  for (const auto& [layer, ns] : self) {
    sum += ns;
    std::printf("%-14s %16llu %8.4f\n", layer.c_str(), static_cast<unsigned long long>(ns),
                wall > 0 ? static_cast<double>(ns) / static_cast<double>(wall) : 0.0);
  }
  std::printf("%-14s %16llu (traced wall %llu ns)\n", "sum", static_cast<unsigned long long>(sum),
              static_cast<unsigned long long>(wall));
  if (sum != wall)
    r.error("layer self times do not sum to the traced wall");
  for (const auto& [layer, ns] : self)
    r.metric("self." + layer + "_share",
             wall > 0 ? static_cast<double>(ns) / static_cast<double>(wall) : 0.0, "ratio");
  r.metric("trace_overhead", t.traced_ns_per_op / t.untraced_ns_per_op, "ratio");
  write_trace_file(opt, t, r, self, wall, machine);
}

void print_result(const Result& r) {
  std::printf("%-28s %22s  %s\n", "metric", "value", "unit");
  for (const auto& m : r.metrics)
    std::printf("%-28s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& e : r.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string line = "{\"correct\": " + std::string(r.errors.empty() && r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    line += (i == 0 ? "" : ", ") + json_str(m.name) + ": {\"value\": " + json_num(m.value) +
            ", \"unit\": " + json_str(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload <flows_local|flows_wan|actor_pingpong|"
               "gras_lan> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  using namespace rb;
  // glibc raises its mmap threshold the first time a large block is freed,
  // and when that happens depends on how far a timed phase got, so the
  // resident set would take one of two sizes at random (14.6 or 16.2 MB on
  // flows_local). Fixing the threshold at its default value turns that off.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload")
      opt.workload = v;
    else if (k == "--seed")
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      opt.seconds = std::atof(v.c_str());
    else if (k == "--trace")
      opt.trace = v == "1";
    else if (k == "--out-dir")
      opt.out_dir = v;
    else
      return usage(("unknown option " + k).c_str());
  }
  if (argc % 2 == 0)
    return usage("options come in pairs");
  if (!(opt.seconds > 0))
    return usage("--seconds must be positive");

  void (*run)(const Options&, Result&, TraceRun*) = nullptr;
  if (opt.workload == "flows_local")
    run = [](const Options& o, Result& r, TraceRun* t) { run_flows(o, false, r, t); };
  else if (opt.workload == "flows_wan")
    run = [](const Options& o, Result& r, TraceRun* t) { run_flows(o, true, r, t); };
  else if (opt.workload == "actor_pingpong")
    run = run_actor_pingpong;
  else if (opt.workload == "gras_lan")
    run = run_gras_lan;
  else
    return usage(("unknown workload '" + opt.workload + "'").c_str());

  Result r;
  TraceRun trace;
  try {
    const bool probe_codecs = !opt.trace && opt.workload != "gras_lan";
    std::vector<GrasLatency> probe;
    if (probe_codecs)
      probe = gras_probe_slices(opt.seed, kCodecProbeSeconds / 2);
    run(opt, r, opt.trace ? &trace : nullptr);
    if (probe_codecs) {
      const auto more = gras_probe_slices(opt.seed, kCodecProbeSeconds / 2);
      probe.insert(probe.end(), more.begin(), more.end());
      report_codec_probe(probe, r);
    }
    if (!opt.trace)  // deterministic, so its place in the run does not matter
      r.metric("validation_err_pct", validation_error_pct(), "%");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "repobench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const std::string mjson = machine_json(describe_machine());
  if (opt.trace)
    finish_traced(opt, trace, r, mjson);

  std::string info = "{\"workload\": " + json_str(opt.workload) + ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + json_num(opt.seconds) + ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"machine\": " + mjson;
  for (const auto& m : r.info)
    info += ", " + json_str(m.name) + ": " + json_num(m.value);
  std::printf("info %s}\n", info.c_str());
  print_result(r);
  return 0;
}
