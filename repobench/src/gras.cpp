/// gras_lan: the paper's LAN exchange table through the datadesc API alone.
/// Seeded Pastry messages are encoded on the sender architecture and
/// decoded on the receiver architecture, round-robin over the 5 codecs and
/// the 9 {ppc, sparc, x86} pairs (exchange i uses codec i % 5 and pair
/// i % 9, so every 45 exchanges cover every cell). Only codec CPU is timed,
/// unscaled; every decoded message is compared with the one sent.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "datadesc/arch.hpp"
#include "datadesc/codec.hpp"
#include "datadesc/pastry.hpp"
#include "workloads.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace rb {
namespace {

using sg::datadesc::ArchDesc;
using sg::datadesc::Codec;
using sg::datadesc::Value;

constexpr int kMessages = 1024;
constexpr int kProbeMessages = 64;  // keeps the probe's footprint small
constexpr size_t kPayloadBytes = 256;  // the paper's table payload
constexpr int kSetupRepeats = 15;
constexpr std::array<const char*, 5> kCodecs = {"gras", "mpich", "omniorb", "pbio", "xml"};
constexpr std::array<const char*, 3> kArchs = {"ppc", "sparc", "x86"};
constexpr int kPairs = 9;
/// About 2000 exchanges, 700 of them same-arch: a steady p50 per slice, and
/// enough slices that the fastest one falls in a quiet moment of the host.
constexpr double kCodecSliceSeconds = 0.1;

struct Setup {
  sg::datadesc::DataDescPtr desc;
  std::vector<Value> messages;
  std::array<const Codec*, kCodecs.size()> codecs{};
  std::array<const ArchDesc*, kArchs.size()> archs{};
};

Setup make_setup(std::uint64_t seed, int n_messages = kMessages) {
  Setup s;
  s.desc = sg::datadesc::pastry_message_desc();
  for (size_t c = 0; c < kCodecs.size(); ++c)
    s.codecs[c] = &sg::datadesc::codec_by_name(kCodecs[c]);
  for (size_t a = 0; a < kArchs.size(); ++a)
    s.archs[a] = &sg::datadesc::arch_by_name(kArchs[a]);
  sg::xbt::Rng rng(seed);
  s.messages.reserve(static_cast<size_t>(n_messages));
  for (int i = 0; i < n_messages; ++i)
    s.messages.push_back(sg::datadesc::make_pastry_message(rng, kPayloadBytes));
  // Warm-up: one exchange per cell pages in every conversion path.
  for (const Codec* c : s.codecs)
    for (const ArchDesc* snd : s.archs)
      for (const ArchDesc* rcv : s.archs)
        (void)c->decode(*s.desc, c->encode(*s.desc, s.messages[0], *snd), *rcv);
  return s;
}

/// Per-codec figures of the traced run.
struct CodecTrace {
  std::uint32_t encode = 0, decode = 0;
  std::uint64_t exchanges = 0, allocs = 0, wire_bytes = 0;
};

struct Samples {
  std::vector<double> same_us, cross_us;
  std::uint64_t exchanges = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
};

/// Run exchanges for `seconds`, or exactly `replay` exchanges when set (the
/// traced window replays the untraced one's sequence), numbering them from
/// `first`. With `tr`, every encode/decode call is a span and its
/// allocations are counted per codec.
Samples run_exchanges(const Setup& s, std::uint64_t first, double seconds, std::uint64_t replay,
                      Result* out, Tracer* tr, std::array<CodecTrace, kCodecs.size()>* ct) {
  Samples r;
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t deadline =
      replay > 0 ? ~std::uint64_t{0} : t_begin + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t_now = t_begin;
  for (std::uint64_t i = first; t_now < deadline && (replay == 0 || i - first < replay); ++i) {
    const size_t c = i % kCodecs.size();
    const size_t pair = i % kPairs;
    const size_t snd = pair / kArchs.size(), rcv = pair % kArchs.size();
    const Codec& codec = *s.codecs[c];
    const Value& msg = s.messages[i % s.messages.size()];
    bool ok = false;
    std::uint64_t t0 = 0, t1 = 0;
    try {
      if (tr == nullptr) {
        t0 = now_ns();
        const auto wire = codec.encode(*s.desc, msg, *s.archs[snd]);
        const Value got = codec.decode(*s.desc, wire, *s.archs[rcv]);
        t1 = now_ns();
        ok = got == msg;
      } else {
        CodecTrace& k = (*ct)[c];
        const std::uint64_t a0 = alloc::count();
        t0 = now_ns();
        tr->begin(k.encode);
        const auto wire = codec.encode(*s.desc, msg, *s.archs[snd]);
        tr->end();
        tr->begin(k.decode);
        const Value got = codec.decode(*s.desc, wire, *s.archs[rcv]);
        tr->end();
        t1 = now_ns();
        k.allocs += alloc::count() - a0;
        k.wire_bytes += wire.size();
        ++k.exchanges;
        ok = got == msg;
      }
    } catch (const std::exception& e) {
      if (out != nullptr)
        out->error(sg::xbt::format("%s %s->%s threw: %s", kCodecs[c], kArchs[snd], kArchs[rcv],
                                   e.what()));
      t1 = now_ns();
    }
    ++r.exchanges;
    if (!ok) {
      ++r.failed;
      if (out != nullptr)
        out->error(sg::xbt::format("%s %s->%s: decoded message differs", kCodecs[c], kArchs[snd],
                                   kArchs[rcv]));
    } else {
      (snd == rcv ? r.same_us : r.cross_us).push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    t_now = now_ns();
  }
  r.wall_s = seconds_between(t_begin, t_now);
  return r;
}

/// Figures of one slice of exchanges.
GrasLatency latency_of(Samples& r) {
  GrasLatency g;
  g.samples = r.exchanges;
  g.failed = r.failed;
  g.wall_s = r.wall_s;
  g.ops_per_s = static_cast<double>(r.exchanges) / r.wall_s;
  std::vector<double> all = r.same_us;
  all.insert(all.end(), r.cross_us.begin(), r.cross_us.end());
  g.same_arch_us_p50 = quantile(r.same_us, 0.5);
  g.cross_arch_us_p50 = quantile(r.cross_us, 0.5);
  g.exchange_us_p99 = quantile(all, 0.99);
  return g;
}

/// `seconds` of untraced exchanges in slices of about kCodecSliceSeconds,
/// each on the next CPU. Keeping no sample past its slice holds the
/// benchmark's own memory flat, so peak_rss_bytes does not depend on how
/// many exchanges a run got through.
std::vector<GrasLatency> slice_latencies(const Setup& s, double seconds, Result* out) {
  const int n = std::max(1, static_cast<int>(seconds / kCodecSliceSeconds + 0.5));
  std::vector<GrasLatency> slices;
  slices.reserve(static_cast<size_t>(n));
  std::uint64_t done = 0;
  CpuRotation cpu;
  for (int k = 0; k < n; ++k) {
    cpu.next();
    Samples r = run_exchanges(s, done, seconds / n, 0, out, nullptr, nullptr);
    done += r.exchanges;
    slices.push_back(latency_of(r));
  }
  return slices;
}

}  // namespace

GrasLatency best_of(const std::vector<GrasLatency>& slices) {
  GrasLatency g;
  std::vector<double> p99;
  for (const GrasLatency& x : slices) {
    const bool first = p99.empty();
    g.same_arch_us_p50 = first ? x.same_arch_us_p50 : std::min(g.same_arch_us_p50, x.same_arch_us_p50);
    g.cross_arch_us_p50 = first ? x.cross_arch_us_p50 : std::min(g.cross_arch_us_p50, x.cross_arch_us_p50);
    g.ops_per_s = std::max(g.ops_per_s, x.ops_per_s);
    p99.push_back(x.exchange_us_p99);
    g.samples += x.samples;
    g.failed += x.failed;
    g.wall_s += x.wall_s;
  }
  g.exchange_us_p99 = median(p99);
  return g;
}

std::vector<GrasLatency> gras_probe_slices(std::uint64_t seed, double seconds) {
  const Setup s = make_setup(seed, kProbeMessages);
  return slice_latencies(s, seconds, nullptr);
}

void run_gras_lan(const Options& opt, Result& out, TraceRun* trace) {
  if (trace == nullptr) {
    std::vector<double> setups;
    Setup s;
    CpuRotation cpu;
    for (int i = 0; i < kSetupRepeats; ++i) {
      cpu.next();
      const std::uint64_t t0 = now_ns();
      s = make_setup(opt.seed);
      setups.push_back(seconds_between(t0, now_ns()));
    }
    const GrasLatency g = best_of(slice_latencies(s, opt.seconds, &out));
    out.attempted += g.samples;
    out.failed += g.failed;
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", g.ops_per_s, "ops/s");
    out.metric("peak_rss_bytes", static_cast<double>(peak_rss_bytes()), "bytes");
    out.metric("same_arch_us_p50", g.same_arch_us_p50, "us");
    out.metric("cross_arch_us_p50", g.cross_arch_us_p50, "us");
    out.metric("exchange_us_p99", g.exchange_us_p99, "us");
    out.note("exchange_samples", static_cast<double>(g.samples), "count");
    out.note("window_ops_per_s", static_cast<double>(g.samples) / g.wall_s, "ops/s");
    return;
  }

  const Setup s = make_setup(opt.seed);
  const Samples ref = run_exchanges(s, 0, opt.seconds / 2, 0, nullptr, nullptr, nullptr);
  trace->untraced_ns_per_op = ref.wall_s * 1e9 / static_cast<double>(ref.exchanges);
  Tracer& tr = trace->tracer;
  const std::uint32_t root = tr.name_id(trace->root);
  std::array<CodecTrace, kCodecs.size()> ct;
  for (size_t c = 0; c < kCodecs.size(); ++c) {
    ct[c].encode = tr.name_id(sg::xbt::format("datadesc.%s.encode", kCodecs[c]));
    ct[c].decode = tr.name_id(sg::xbt::format("datadesc.%s.decode", kCodecs[c]));
  }
  alloc::set_counting(true);
  tr.begin(root);
  const Samples r = run_exchanges(s, 0, 0, ref.exchanges, &out, &tr, &ct);
  tr.end();
  alloc::set_counting(false);
  trace->traced_ns_per_op = r.wall_s * 1e9 / static_cast<double>(r.exchanges);
  out.attempted += r.exchanges;
  out.failed += r.failed;
  for (size_t c = 0; c < kCodecs.size(); ++c) {
    const auto n = static_cast<double>(ct[c].exchanges);
    const std::string base = sg::xbt::format("datadesc.%s.", kCodecs[c]);
    out.metric(base + "encode_ns", static_cast<double>(tr.find(base + "encode")->total_ns) / n, "ns");
    out.metric(base + "decode_ns", static_cast<double>(tr.find(base + "decode")->total_ns) / n, "ns");
    out.metric(base + "allocs", static_cast<double>(ct[c].allocs) / n, "count");
    out.metric(base + "wire_bytes", static_cast<double>(ct[c].wire_bytes) / n, "bytes");
  }
}

}  // namespace rb
