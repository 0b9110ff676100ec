/// flows_local / flows_wan: closed-loop flow churn straight through the
/// engine. 16 cluster zones (fat-pipe backbones) hang off one core router by
/// shared WAN links. Every client keeps exactly one flow in flight and
/// issues the next one when it completes; sizes are log-uniform over three
/// decades so completion dates desynchronize. flows_local keeps every flow
/// inside its zone; flows_wan sends kCrossShare of new flows to a random
/// server of another zone, across two shared WAN links. Those flows are
/// bounded by the TCP window on their longer route, so they outlive the
/// local ones and all of them form one large coupled solver component.
/// Set-up ends after kWarmupSimS of simulated time.
#include <cmath>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "platform/platform.hpp"
#include "workloads.hpp"
#include "xbt/settings.hpp"
#include "xbt/random.hpp"
#include "xbt/str.hpp"

namespace rb {
namespace {

constexpr int kZones = 16;
constexpr int kPairsPerZone = 250;
constexpr double kCrossShare = 0.01;
constexpr double kMinBytes = 1e4;
constexpr double kMaxBytes = 1e7;
constexpr double kWanBandwidth = 1.25e10;  // 100 Gb/s per zone uplink, shared
constexpr double kWanLatency = 1e-4;
constexpr int kSetupRepeats = 5;
/// Warm-up: simulated seconds before the steady state is declared.
constexpr double kWarmupSimS = 0.1;

sg::platform::Platform make_platform() {
  sg::platform::Platform p;
  for (int z = 0; z < kZones; ++z) {
    sg::platform::ClusterZoneSpec spec;
    spec.name = sg::xbt::format("zone%d", z);
    spec.host_prefix = sg::xbt::format("z%d-", z);
    spec.count = 2 * kPairsPerZone;
    spec.backbone_fatpipe = true;  // a shared backbone would couple every pair of a zone
    p.add_cluster_zone(spec);
  }
  const auto core = p.add_router("core");
  for (int z = 0; z < kZones; ++z) {
    const auto wan = p.add_link(sg::xbt::format("wan%d", z), kWanBandwidth, kWanLatency,
                                sg::platform::SharingPolicy::kShared);
    p.add_edge(core, p.zone_gateway(z), wan);
  }
  p.seal();
  return p;
}

struct Counters {
  std::uint64_t started = 0;
  std::uint64_t cross_started = 0;
  std::uint64_t cross_ended = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t empty_rounds = 0;
};

/// Span names and per-call samples of the traced run.
struct FlowTrace {
  Tracer* tracer = nullptr;
  std::uint32_t run_until = 0, comm_start = 0, route = 0;
  std::vector<double> route_ns;
  std::uint64_t comm_start_allocs = 0;
};

class Flows {
public:
  Flows(double cross_share, std::uint64_t seed)
      : cross_share_(cross_share), rng_(seed), engine_(make_platform()) {}

  sg::core::Engine& engine() { return engine_; }
  Counters& counters() { return c_; }

  void start_all() {
    for (int z = 0; z < kZones; ++z) {
      const int base = engine_.platform().zone_first_host(z);
      for (int i = 0; i < kPairsPerZone; ++i)
        issue(base + 2 * i, nullptr);
    }
  }

  /// One closed-loop round: advance to the next engine event and restart
  /// every client whose flow ended (unless `reissue` is off: draining).
  void round(FlowTrace* ft, bool reissue = true) {
    if (ft != nullptr)
      ft->tracer->begin(ft->run_until);
    const auto log = engine_.run_until();
    if (ft != nullptr)
      ft->tracer->end();
    ++c_.rounds;
    if (log.empty())
      ++c_.empty_rounds;
    for (const auto& ev : log) {
      if (ev.failed || ev.action->state() != sg::core::ActionState::kDone)
        ++c_.failed;
      else
        ++c_.completed;
      if (zone_of(ev.action->host()) != zone_of(ev.action->peer_host()))
        ++c_.cross_ended;
      if (reissue)
        issue(ev.action->host(), ft);
    }
  }

  void warm_up() {
    while (engine_.now() < kWarmupSimS)
      round(nullptr);
  }

private:
  static int zone_of(int host) { return host / (2 * kPairsPerZone); }

  void issue(int client, FlowTrace* ft) {
    int dst = client + 1;
    if (cross_share_ > 0 && rng_.uniform01() < cross_share_) {
      const int zone = zone_of(client);
      auto other = static_cast<int>(rng_.uniform_int(0, kZones - 2));
      if (other >= zone)
        ++other;
      const auto pair = static_cast<int>(rng_.uniform_int(0, kPairsPerZone - 1));
      dst = engine_.platform().zone_first_host(other) + 2 * pair + 1;
      ++c_.cross_started;
    }
    const double bytes = std::exp(rng_.uniform(std::log(kMinBytes), std::log(kMaxBytes)));
    ++c_.started;
    if (ft == nullptr) {
      engine_.comm_start(client, dst, bytes);
      return;
    }
    if (ft->route_ns.size() < ft->route_ns.capacity()) {
      ft->tracer->begin(ft->route);
      (void)engine_.platform().route(client, dst);
      ft->route_ns.push_back(static_cast<double>(ft->tracer->end()));
    }
    const std::uint64_t a0 = alloc::count();
    ft->tracer->begin(ft->comm_start);
    engine_.comm_start(client, dst, bytes);
    ft->tracer->end();
    ft->comm_start_allocs += alloc::count() - a0;
  }

  double cross_share_;
  sg::xbt::Rng rng_;
  sg::core::Engine engine_;
  Counters c_;
};

/// Build, start and warm up; stores the set-up wall seconds in `setup_s`.
std::unique_ptr<Flows> set_up(double cross_share, std::uint64_t seed, double* setup_s = nullptr) {
  const std::uint64_t t0 = now_ns();
  auto flows = std::make_unique<Flows>(cross_share, seed);
  flows->start_all();
  flows->warm_up();
  if (setup_s != nullptr)
    *setup_s = seconds_between(t0, now_ns());
  return flows;
}

struct Window {
  double wall_s = 0;
  std::uint64_t ops = 0;        ///< flows completed inside the window
  std::uint64_t in_flight = 0;  ///< flows running when the window opened
  Counters before;
};

/// Run the closed loop for `seconds` or, when `replay_ops` is set, until
/// that many flows completed (a traced window replays exactly the work of
/// the untraced one: same seed, same set-up, deterministic simulation).
/// The thread moves to the next CPU every kSliceSeconds, so the rate is an
/// average over the CPUs. It is not a best slice, as for actor_pingpong and
/// gras_lan: over five 10 s runs of flows_local, the fastest slice's rate
/// spread 0.14 (interquartile range over median) against 0.08 for the
/// window's, and in flows_wan the work per flow changes from slice to slice
/// with the cross-zone population.
Window timed_phase(Flows& f, double seconds, std::uint64_t replay_ops, FlowTrace* ft) {
  auto& c = f.counters();
  Window w;
  w.in_flight = f.engine().running_action_count();
  w.before = c;
  constexpr auto kSliceNs = static_cast<std::uint64_t>(kSliceSeconds * 1e9);
  CpuRotation cpu;
  cpu.next();
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t = t0, slice_end = t0 + kSliceNs;
  const auto done = [&] {
    return replay_ops > 0 ? c.completed - w.before.completed >= replay_ops : t >= deadline;
  };
  do {
    f.round(ft);
    t = now_ns();
    if (t >= slice_end) {
      cpu.next();
      slice_end = t + kSliceNs;
    }
  } while (!done());
  w.wall_s = seconds_between(t0, t);
  w.ops = c.completed - w.before.completed;
  return w;
}

/// After a window: stop issuing, drain every flow in flight and check that
/// each flow the window started (and each it inherited) completed unfailed.
void drain_and_check(Flows& f, const Window& w, Result& out) {
  auto& c = f.counters();
  while (f.engine().running_action_count() > 0)
    f.round(nullptr, /*reissue=*/false);
  const std::uint64_t started = c.started - w.before.started;
  const std::uint64_t ended_ok = c.completed - w.before.completed;
  const std::uint64_t ended_bad = c.failed - w.before.failed;
  const std::uint64_t expected = w.in_flight + started;
  const std::uint64_t missing = expected > ended_ok + ended_bad ? expected - ended_ok - ended_bad : 0;
  out.attempted += started;
  out.failed += ended_bad + missing;
  if (ended_bad > 0)
    out.error(sg::xbt::format("%llu flows failed", static_cast<unsigned long long>(ended_bad)));
  if (ended_ok + ended_bad != expected)
    out.error(sg::xbt::format("%llu flows ended, %llu expected",
                              static_cast<unsigned long long>(ended_ok + ended_bad),
                              static_cast<unsigned long long>(expected)));
}

void note_simulation(Flows& f, Result& out) {
  const auto& c = f.counters();
  out.note("sim_clock_s", f.engine().now(), "s");
  out.note("sim_flows_completed", static_cast<double>(c.completed), "count");
  out.note("sim_cross_zone_flows_started", static_cast<double>(c.cross_started), "count");
  out.note("sim_cross_zone_flows_in_flight", static_cast<double>(c.cross_started - c.cross_ended),
           "count");
  const auto st = f.engine().sharing_system().solve_stats();
  out.note("sim_solves", static_cast<double>(st.solves), "count");
}

}  // namespace

void engine_counter_metrics(const EngineSnapshot& a, const EngineSnapshot& b, double ops,
                            Result& out) {
  const auto delta = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  const double total = delta(a.phases.total_ns, b.phases.total_ns);
  const auto share = [&](std::uint64_t x, std::uint64_t y) { return total > 0 ? delta(x, y) / total : 0.0; };
  out.metric("engine.solve_share", share(a.phases.solve_ns, b.phases.solve_ns), "ratio");
  out.metric("engine.pick_share", share(a.phases.pick_ns, b.phases.pick_ns), "ratio");
  out.metric("engine.advance_share", share(a.phases.advance_ns, b.phases.advance_ns), "ratio");
  out.metric("engine.epilogue_share", share(a.phases.epilogue_ns, b.phases.epilogue_ns), "ratio");
  const double solves = delta(a.solves.solves, b.solves.solves);
  const auto per_solve = [&](size_t x, size_t y) { return solves > 0 ? delta(x, y) / solves : 0.0; };
  out.metric("solver.solves_per_op", solves / ops, "count");
  out.metric("solver.vars_per_solve", per_solve(a.solves.vars_visited, b.solves.vars_visited), "count");
  out.metric("solver.full_solve_ratio", per_solve(a.solves.full_solves, b.solves.full_solves), "ratio");
  out.metric("solver.group_solves_per_op", delta(a.group_solves, b.group_solves) / ops, "count");
}

void run_flows(const Options& opt, bool wan, Result& out, TraceRun* trace) {
  sg::core::declare_engine_config();
  const double cross = wan ? kCrossShare : 0.0;

  if (trace == nullptr) {
    std::vector<double> setups;
    std::unique_ptr<Flows> flows;
    CpuRotation cpu;
    for (int i = 0; i < kSetupRepeats; ++i) {
      cpu.next();
      flows.reset();
      double s = 0;
      flows = set_up(cross, opt.seed, &s);
      setups.push_back(s);
    }
    const Window w = timed_phase(*flows, opt.seconds, 0, nullptr);
    drain_and_check(*flows, w, out);
    out.metric("setup_s", median(setups), "s");
    out.metric("ops_per_s", static_cast<double>(w.ops) / w.wall_s, "ops/s");
    out.metric("peak_rss_bytes", static_cast<double>(peak_rss_bytes()), "bytes");
    note_simulation(*flows, out);
    return;
  }

  // Traced run: an untraced reference window on a fresh engine, then the
  // same work again, traced, on another one built with engine/profile on.
  std::uint64_t replay_ops = 0;
  {
    auto ref = set_up(cross, opt.seed);
    const Window w = timed_phase(*ref, opt.seconds / 2, 0, nullptr);
    trace->untraced_ns_per_op = w.wall_s * 1e9 / static_cast<double>(w.ops);
    replay_ops = w.ops;
  }
  sg::config::set(sg::core::kCfgProfile, true);
  auto flows = set_up(cross, opt.seed);
  sg::config::set(sg::core::kCfgProfile, false);

  FlowTrace ft;
  Tracer& tr = trace->tracer;
  ft.tracer = &tr;
  ft.run_until = tr.name_id("engine.run_until");
  ft.comm_start = tr.name_id("engine.comm_start");
  ft.route = tr.name_id("platform.route");
  ft.route_ns.reserve(1u << 20);
  const std::uint32_t root = tr.name_id(trace->root);

  auto& eng = flows->engine();
  const EngineSnapshot e0(eng);

  alloc::set_counting(true);
  tr.begin(root);
  const Window w = timed_phase(*flows, 0, replay_ops, &ft);
  tr.end();
  alloc::set_counting(false);

  const EngineSnapshot e1(eng);
  const Counters& c = flows->counters();
  const auto flows_in_flight = static_cast<double>(eng.running_action_count());
  const double solver_bytes = static_cast<double>(eng.sharing_system().memory_stats().total_bytes());

  const double ops = static_cast<double>(w.ops);
  trace->traced_ns_per_op = w.wall_s * 1e9 / ops;
  tr.derive("solver.solve", "engine.run_until", e1.phases.solve_ns - e0.phases.solve_ns,
            e1.phases.rounds - e0.phases.rounds);

  const Tracer::Aggregate* ru = tr.find("engine.run_until");
  const Tracer::Aggregate* cs = tr.find("engine.comm_start");
  out.metric("platform.route_ns", median(ft.route_ns), "ns");
  out.metric("platform.routing_bytes", static_cast<double>(eng.platform().routing_memory().total()),
             "bytes");
  out.metric("engine.comm_start_ns", static_cast<double>(cs->total_ns) / static_cast<double>(cs->count),
             "ns");
  out.metric("engine.comm_start_allocs",
             static_cast<double>(ft.comm_start_allocs) / static_cast<double>(cs->count), "count");
  out.metric("engine.run_until_ns_per_op", static_cast<double>(ru->total_ns) / ops, "ns");
  out.metric("engine.empty_round_ratio",
             static_cast<double>(c.empty_rounds - w.before.empty_rounds) /
                 static_cast<double>(c.rounds - w.before.rounds),
             "ratio");
  engine_counter_metrics(e0, e1, ops, out);
  out.metric("solver.bytes_per_flow", solver_bytes / flows_in_flight, "bytes");
  drain_and_check(*flows, w, out);
  note_simulation(*flows, out);
}

}  // namespace rb
