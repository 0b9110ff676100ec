/// actor_pingpong: kPairs host-local actor pairs on a 16-zone cluster. A
/// pair's pinger sends a ping and waits for the pong; rounds alternate a
/// blocking exchange (send/recv) and an asynchronous one (send_async or
/// recv_async, then comm_wait), so both the recorded-simcall path and the
/// inline resume path stay hot. Payloads carry (pair, sequence, last) and
/// every receiver checks them. Once every pair has finished round 0 (the
/// warm-up: stacks committed, slots touched) the window opens; when it has
/// lasted the requested time, each pinger's next ping is its last.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/kernel.hpp"
#include "platform/platform.hpp"
#include "workloads.hpp"
#include "xbt/settings.hpp"
#include "xbt/str.hpp"

namespace rb {
namespace {

using sg::kernel::Kernel;
using sg::kernel::MailboxId;

constexpr long kPairs = 100000;
constexpr int kZones = 16;
constexpr int kHostsPerZone = 64;
constexpr double kMessageBytes = 1e3;
constexpr int kSetupRepeats = 3;

sg::platform::Platform make_platform() {
  sg::platform::Platform p;
  for (int z = 0; z < kZones; ++z) {
    sg::platform::ClusterZoneSpec zone;
    zone.name = sg::xbt::format("zone%d", z);
    zone.host_prefix = sg::xbt::format("z%d-", z);
    zone.count = kHostsPerZone;
    p.add_cluster_zone(zone);
  }
  p.seal();
  return p;
}

void* tag(long pair, std::uint32_t seq, bool last) {
  const std::uint64_t v = (static_cast<std::uint64_t>(pair) << 32) |
                          (static_cast<std::uint64_t>(seq) << 1) | (last ? 1u : 0u);
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(v) | (std::uintptr_t{1} << 63));
}

/// Message rates of consecutive kSliceSeconds slices of the window, each on
/// the next CPU. Contention from other tenants only ever slows a slice, and
/// every slice does the same work, so the fastest slice is the figure that
/// repeats from run to run. tick() is cheap enough to call once per message.
class SliceRates {
public:
  void start(std::uint64_t now, std::uint64_t ops) {
    cpu_.next();
    slice_t0_ = now;
    slice_ops0_ = ops;
  }
  void tick(std::uint64_t now, std::uint64_t ops) {
    if (now - slice_t0_ < kSliceNs)
      return;
    rates_.push_back(static_cast<double>(ops - slice_ops0_) / seconds_between(slice_t0_, now));
    start(now, ops);
  }
  /// Rate of the fastest slice; the partial last slice counts only if it is
  /// the only one.
  double best_rate(std::uint64_t now, std::uint64_t ops) const {
    if (!rates_.empty())
      return *std::max_element(rates_.begin(), rates_.end());
    return static_cast<double>(ops - slice_ops0_) / seconds_between(slice_t0_, now);
  }

private:
  static constexpr auto kSliceNs = static_cast<std::uint64_t>(kSliceSeconds * 1e9);
  CpuRotation cpu_;
  std::vector<double> rates_;
  std::uint64_t slice_t0_ = 0, slice_ops0_ = 0;
};

/// One swarm: the kernel, the pairs' mailboxes and the shared counters.
class Swarm {
public:
  /// Called (from actor context) the moment the last pair finishes round 0.
  using WindowHook = std::function<void()>;

  Swarm(bool stop_after_warmup, WindowHook on_window)
      : stop_after_warmup_(stop_after_warmup), on_window_(std::move(on_window)),
        kernel_(make_platform()) {}

  Kernel& kernel() { return kernel_; }

  void spawn_all() {
    const auto hosts = static_cast<long>(kernel_.engine().platform().host_count());
    ping_.reserve(kPairs);
    pong_.reserve(kPairs);
    for (long i = 0; i < kPairs; ++i) {
      const int host = static_cast<int>(i % hosts);
      ping_.push_back(kernel_.mailbox_by_name(sg::xbt::format("ping%ld", i)));
      pong_.push_back(kernel_.mailbox_by_name(sg::xbt::format("pong%ld", i)));
      kernel_.spawn(sg::xbt::format("ponger%ld", i), host, [this, i] { ponger(i); });
      kernel_.spawn(sg::xbt::format("pinger%ld", i), host, [this, i] { pinger(i); });
    }
  }

  void set_deadline(std::uint64_t ns) { deadline_ns_ = ns; }
  /// Stop after this many window messages instead (a traced window replays
  /// the untraced one's work).
  void set_op_budget(std::uint64_t ops) { op_budget_ = ops; }
  std::uint64_t window_start_ns() const { return window_start_ns_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t delivered_at_window() const { return delivered_at_window_; }
  const SliceRates& slices() const { return slices_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t bad() const { return bad_; }
  long finished_pingers() const { return finished_pingers_; }
  long finished_pongers() const { return finished_pongers_; }

private:
  void send(MailboxId mb, void* payload, std::uint32_t seq) {
    ++sent_;
    if (seq % 2 == 0) {
      kernel_.send(mb, payload, kMessageBytes);
    } else {
      const auto comm = kernel_.send_async(mb, payload, kMessageBytes);
      kernel_.comm_wait(comm);
    }
  }

  std::uint64_t receive(MailboxId mb, std::uint32_t seq) {
    void* p = seq % 2 == 0 ? kernel_.recv(mb) : kernel_.comm_wait(kernel_.recv_async(mb));
    ++delivered_;
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
  }

  void check(std::uint64_t got, long pair, std::uint32_t seq, bool last) {
    if (got != static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(tag(pair, seq, last))))
      ++bad_;
  }

  bool window_over() {
    const std::uint64_t t = now_ns();
    if (window_start_ns_ > 0 && t < deadline_ns_)
      slices_.tick(t, delivered_);
    if (op_budget_ > 0)
      return window_start_ns_ > 0 && delivered_ - delivered_at_window_ >= op_budget_;
    return t >= deadline_ns_;
  }

  void pinger(long i) {
    for (std::uint32_t seq = 0;; ++seq) {
      const bool last = seq > 0 && (stop_after_warmup_ || window_over());
      send(ping_[static_cast<size_t>(i)], tag(i, seq, last), seq);
      if (last)
        break;
      check(receive(pong_[static_cast<size_t>(i)], seq), i, seq, false);
      if (seq == 0 && ++warm_pairs_ == kPairs) {
        window_start_ns_ = now_ns();
        delivered_at_window_ = delivered_;
        slices_.start(window_start_ns_, delivered_);
        if (on_window_)
          on_window_();
      }
    }
    ++finished_pingers_;
  }

  void ponger(long i) {
    for (std::uint32_t seq = 0;; ++seq) {
      const std::uint64_t got = receive(ping_[static_cast<size_t>(i)], seq);
      const bool last = (got & 1u) != 0;
      check(got, i, seq, last);
      if (last)
        break;
      send(pong_[static_cast<size_t>(i)], tag(i, seq, false), seq);
    }
    ++finished_pongers_;
  }

  bool stop_after_warmup_;
  WindowHook on_window_;
  Kernel kernel_;
  std::vector<MailboxId> ping_, pong_;
  std::uint64_t deadline_ns_ = ~std::uint64_t{0};
  std::uint64_t op_budget_ = 0;
  long warm_pairs_ = 0;
  std::uint64_t window_start_ns_ = 0;
  std::uint64_t delivered_ = 0, delivered_at_window_ = 0, sent_ = 0, bad_ = 0;
  SliceRates slices_;
  long finished_pingers_ = 0, finished_pongers_ = 0;
};

/// Every message arrived exactly once with its payload, nothing deadlocked
/// and every actor exited.
void check_swarm(Swarm& s, Result& out) {
  if (s.bad() > 0)
    out.error(sg::xbt::format("%llu messages carried a wrong payload",
                              static_cast<unsigned long long>(s.bad())));
  if (s.delivered() != s.sent())
    out.error(sg::xbt::format("%llu messages sent, %llu delivered",
                              static_cast<unsigned long long>(s.sent()),
                              static_cast<unsigned long long>(s.delivered())));
  if (s.kernel().deadlocked())
    out.error("the kernel reports a deadlock");
  if (s.finished_pingers() != kPairs || s.finished_pongers() != kPairs ||
      s.kernel().alive_actor_count() != 0)
    out.error("not every actor exited");
}

struct Timing {
  double setup_s = 0;
  double spawn_s = 0;
  std::uint64_t rss_before = 0;  ///< resident bytes before the kernel existed
};

/// Build the swarm and spawn every actor (the part of set-up that happens
/// before Kernel::run(); the warm-up round is timed from inside the run).
std::unique_ptr<Swarm> build(bool stop_after_warmup, Swarm::WindowHook hook, Timing& t,
                             std::uint64_t* t0) {
  t.rss_before = rss_bytes();
  *t0 = now_ns();
  auto s = std::make_unique<Swarm>(stop_after_warmup, std::move(hook));
  const std::uint64_t t_spawn = now_ns();
  s->spawn_all();
  t.spawn_s = seconds_between(t_spawn, now_ns());
  return s;
}

struct Window {
  double wall_s = 0;
  std::uint64_t ops = 0;
  double slice_rate = 0;  ///< messages/s of the window's fastest slice
};

/// One full swarm run whose window lasts `seconds` (or carries about
/// `replay_ops` messages when set); set-up time is build + spawn + the
/// warm-up round.
Window run_swarm(double seconds, std::uint64_t replay_ops, Result& out, Timing& t, bool check,
                 const std::function<void(Swarm&)>& at_window = {},
                 std::unique_ptr<Swarm>* keep = nullptr) {
  std::uint64_t t0 = 0;
  Swarm* self = nullptr;
  auto hook = [&] {
    self->set_deadline(now_ns() + static_cast<std::uint64_t>(seconds * 1e9));
    if (at_window)
      at_window(*self);
  };
  auto s = build(false, hook, t, &t0);
  self = s.get();
  s->set_op_budget(replay_ops);
  const std::uint64_t t_run = now_ns();
  s->kernel().run();
  const std::uint64_t t_end = now_ns();
  t.setup_s = seconds_between(t0, t_run) + seconds_between(t_run, s->window_start_ns());
  Window w;
  w.wall_s = seconds_between(s->window_start_ns(), t_end);
  w.ops = s->delivered() - s->delivered_at_window();
  w.slice_rate = s->slices().best_rate(t_end, s->delivered());
  if (check) {
    out.attempted += s->sent();
    out.failed += s->sent() - std::min(s->sent(), s->delivered()) + s->bad();
    check_swarm(*s, out);
    out.note("sim_clock_s", s->kernel().now(), "s");
    out.note("sim_messages_delivered", static_cast<double>(s->delivered()), "count");
    out.note("sim_wakeups", static_cast<double>(s->kernel().stats().wakeups), "count");
  }
  if (keep != nullptr)
    *keep = std::move(s);
  return w;
}

/// A set-up-only swarm: build, spawn, warm-up round, then every pair stops.
double setup_only(Result& out) {
  Timing t;
  std::uint64_t t0 = 0;
  auto s = build(true, {}, t, &t0);
  const std::uint64_t t_run = now_ns();
  s->kernel().run();
  check_swarm(*s, out);
  return seconds_between(t0, t_run) + seconds_between(t_run, s->window_start_ns());
}

void configure_contexts() {
  // Large-swarm context settings (see examples/actor_swarm.cpp): small stacks
  // and no guard pages, which would otherwise exhaust vm.max_map_count.
  sg::kernel::declare_context_config();
  sg::core::declare_engine_config();
  sg::config::set(sg::kernel::kCfgContextStackSize, 64.0 * 1024);
  sg::config::set(sg::kernel::kCfgContextGuardPages, 0L);
}

}  // namespace

void run_actor_pingpong(const Options& opt, Result& out, TraceRun* trace) {
  configure_contexts();

  if (trace == nullptr) {
    std::vector<double> setups;
    CpuRotation cpu;
    for (int i = 0; i < kSetupRepeats - 1; ++i) {
      cpu.next();
      setups.push_back(setup_only(out));
    }
    cpu.next();
    Timing t;
    const Window w = run_swarm(opt.seconds, 0, out, t, /*check=*/true);
    setups.push_back(t.setup_s);
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", w.slice_rate, "ops/s");
    out.metric("peak_rss_bytes", static_cast<double>(peak_rss_bytes()), "bytes");
    out.note("window_ops_per_s", static_cast<double>(w.ops) / w.wall_s, "ops/s");
    return;
  }

  // The untraced reference swarm is the first one in the process, so its
  // resident-set growth up to the window (heap and stacks) is the per-actor
  // footprint; later swarms would reuse the heap it freed.
  std::uint64_t replay_ops = 0, rss_before = 0, rss_window = 0;
  {
    Timing t;
    Result scratch;
    const Window w = run_swarm(opt.seconds / 2, 0, scratch, t, /*check=*/false,
                               [&](Swarm&) { rss_window = rss_bytes(); });
    trace->untraced_ns_per_op = w.wall_s * 1e9 / static_cast<double>(w.ops);
    replay_ops = w.ops;
    rss_before = t.rss_before;
  }

  // Traced window: engine/profile on for this kernel's engine, counters
  // snapshotted from inside the run the moment the window opens.
  sg::config::set(sg::core::kCfgProfile, true);
  Tracer& tr = trace->tracer;
  const std::uint32_t root = tr.name_id(trace->root);
  std::unique_ptr<EngineSnapshot> e0;
  sg::kernel::Kernel::Stats k0;
  sg::kernel::ContextFactory::PoolStats pool;
  std::uint64_t allocs0 = 0;
  const auto at_window = [&](Swarm& s) {
    e0 = std::make_unique<EngineSnapshot>(s.kernel().engine());
    k0 = s.kernel().stats();
    pool = s.kernel().context_factory().pool_stats();
    tr.begin(root);
    allocs0 = alloc::count();
    alloc::set_counting(true);
  };
  Timing t;
  std::unique_ptr<Swarm> swarm;
  const Window w = run_swarm(0, replay_ops, out, t, /*check=*/true, at_window, &swarm);
  alloc::set_counting(false);
  const std::uint64_t window_ns = tr.end();
  sg::config::set(sg::core::kCfgProfile, false);

  auto& k = swarm->kernel();
  const EngineSnapshot e1(k.engine());
  const auto k1 = k.stats();
  const double ops = static_cast<double>(w.ops);
  trace->traced_ns_per_op = w.wall_s * 1e9 / ops;
  const std::uint64_t engine_ns = e1.phases.total_ns - e0->phases.total_ns;
  tr.derive("kernel.run", trace->root, window_ns, 1);
  tr.derive("engine.run_until", "kernel.run", engine_ns, e1.phases.rounds - e0->phases.rounds);
  tr.derive("solver.solve", "engine.run_until", e1.phases.solve_ns - e0->phases.solve_ns,
            e1.phases.rounds - e0->phases.rounds);

  const auto actors = static_cast<double>(2 * kPairs);
  const double wakeups = static_cast<double>(k1.wakeups - k0.wakeups);
  out.metric("engine.run_until_ns_per_op", static_cast<double>(engine_ns) / ops, "ns");
  engine_counter_metrics(*e0, e1, ops, out);
  out.metric("kernel.self_ns_per_op", static_cast<double>(window_ns - engine_ns) / ops, "ns");
  out.metric("kernel.wakeups_per_op", wakeups / ops, "count");
  out.metric("kernel.switches_per_wakeup",
             static_cast<double>(k1.context_switches - k0.context_switches) / wakeups, "ratio");
  out.metric("kernel.allocs_per_op", static_cast<double>(alloc::count() - allocs0) / ops, "count");
  out.metric("kernel.spawn_ns", t.spawn_s * 1e9 / actors, "ns");
  out.metric("contexts.stacks_per_actor", static_cast<double>(pool.stacks_allocated) / actors, "ratio");
  out.metric("contexts.slabs", static_cast<double>(pool.slabs), "count");
  out.metric("contexts.rss_bytes_per_actor",
             static_cast<double>(rss_window - std::min(rss_window, rss_before)) / actors, "bytes");
}

}  // namespace rb
