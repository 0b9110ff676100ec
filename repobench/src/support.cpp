/// Statistics, CPU rotation, /proc memory readers and the span tracer (see
/// bench.hpp).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace rb {

double quantile(std::vector<double>& v, double q) {
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {
/// The CPUs the process may run on, read once, before any rotation
/// narrows the thread's mask.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
          v.push_back(c);
    return v;
  }();
  return cpus;
}

/// Best effort: where the affinity cannot be set the thread stays put.
void set_cpus(const int* cpus, size_t n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < n; ++i)
    CPU_SET(cpus[i], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}
}  // namespace

CpuRotation::CpuRotation() : cpus_(allowed_cpus()) {}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1)
    set_cpus(cpus_.data(), cpus_.size());
}

void CpuRotation::next() {
  if (cpus_.size() < 2)
    return;
  set_cpus(&cpus_[at_], 1);
  at_ = (at_ + 1) % cpus_.size();
}

namespace {
std::uint64_t status_kb(const char* key) {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const size_t key_len = std::char_traits<char>::length(key);
    while (std::fgets(line, sizeof line, f)) {
      if (std::char_traits<char>::compare(line, key, key_len) == 0) {
        std::sscanf(line + key_len, " %lu", &kb);
        break;
      }
    }
    std::fclose(f);
  }
  return kb * 1024;
}
}  // namespace

std::uint64_t rss_bytes() { return status_kb("VmRSS:"); }
std::uint64_t peak_rss_bytes() { return status_kb("VmHWM:"); }

std::uint32_t Tracer::name_id(const std::string& name) {
  for (size_t i = 0; i < aggs_.size(); ++i)
    if (aggs_[i].name == name)
      return static_cast<std::uint32_t>(i);
  aggs_.push_back({});
  aggs_.back().name = name;
  return static_cast<std::uint32_t>(aggs_.size() - 1);
}

void Tracer::begin(std::uint32_t name) {
  std::int32_t index = -1;
  if (spans_.size() < kMaxRawSpans) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().index;
    index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, parent, 0, 0});
  } else {
    ++dropped_;
  }
  const std::uint64_t t = now_ns();
  if (index >= 0)
    spans_[static_cast<size_t>(index)].start_ns = t;
  stack_.push_back({name, index, t});
}

std::uint64_t Tracer::end() {
  const std::uint64_t t = now_ns();
  if (stack_.empty())
    throw std::logic_error("Tracer::end() without an open span");
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t d = t - open.start_ns;
  if (open.index >= 0)
    spans_[static_cast<size_t>(open.index)].end_ns = t;
  Aggregate& a = aggs_[open.name];
  ++a.count;
  a.total_ns += d;
  if (!stack_.empty()) {
    Aggregate& p = aggs_[stack_.back().name];
    p.child_ns += d;
    if (a.parent.empty())
      a.parent = p.name;
  }
  return d;
}

void Tracer::derive(const std::string& name, const std::string& parent, std::uint64_t ns,
                    std::uint64_t count) {
  const std::uint32_t id = name_id(name);
  const std::uint32_t pid = name_id(parent);
  Aggregate& a = aggs_[id];
  a.derived = true;
  a.parent = parent;
  a.count += count;
  a.total_ns += ns;
  aggs_[pid].child_ns += ns;
}

const Tracer::Aggregate* Tracer::find(const std::string& name) const {
  for (const auto& a : aggs_)
    if (a.name == name)
      return &a;
  return nullptr;
}

}  // namespace rb
