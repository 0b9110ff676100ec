/// The benchmark's workloads and reference probes. Each workload fills the
/// end-to-end metrics it owns (untraced run) or its per-layer metrics plus
/// the tracer (traced run); main.cpp adds the probes and the layer table.
#pragma once

#include "bench.hpp"
#include "core/engine.hpp"

namespace rb {

/// The engine's and solver's own counters at one instant; two snapshots
/// bracket a traced window.
struct EngineSnapshot {
  sg::core::Engine::PhaseStats phases;
  sg::core::MaxMinSystem::SolveStats solves;
  size_t group_solves = 0;

  explicit EngineSnapshot(const sg::core::Engine& e)
      : phases(e.phase_stats()),
        solves(e.sharing_system().solve_stats()),
        group_solves(e.sharing_system().group_solve_count()) {}
};

/// Per-layer metrics both engine-driven workloads read from the counters:
/// phase shares of run_until() and the solver's work per completed op.
void engine_counter_metrics(const EngineSnapshot& a, const EngineSnapshot& b, double ops,
                            Result& out);

/// What a traced run hands back besides its per-layer metrics.
struct TraceRun {
  Tracer tracer;
  std::string root = "window";  ///< the span covering the traced timed phase
  double untraced_ns_per_op = 0;
  double traced_ns_per_op = 0;
};

/// 16 cluster zones of closed-loop client/server pairs driven through
/// Engine::comm_start / run_until; `wan` sends a fixed small share of new
/// flows across zones over shared WAN links.
void run_flows(const Options& opt, bool wan, Result& out, TraceRun* trace);

/// Host-local actor pairs alternating blocking and asynchronous exchanges.
void run_actor_pingpong(const Options& opt, Result& out, TraceRun* trace);

/// Seeded Pastry messages through every codec and {ppc, sparc, x86} pair.
void run_gras_lan(const Options& opt, Result& out, TraceRun* trace);

// -- reference probes (outside every timed phase) -------------------------------
/// Worst |error| (%) of the fluid model against both packet-level references
/// on the paper's 10-flow Waxman validation scenario. Deterministic.
double validation_error_pct();

/// GRAS codec exchange figures of one slice of round-robin exchanges, or of
/// several slices combined by best_of().
struct GrasLatency {
  double same_arch_us_p50 = 0;
  double cross_arch_us_p50 = 0;
  double exchange_us_p99 = 0;
  double ops_per_s = 0;
  double wall_s = 0;
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
};

/// The fastest slice's p50s and rate (every slice does the same work, and
/// contention from other tenants only ever slows one), the median of the
/// slices' p99s (a tail figure; a 0.1 s slice has about 20 samples beyond
/// its p99), and the totals.
GrasLatency best_of(const std::vector<GrasLatency>& slices);

/// `seconds` of exchanges on a 64-message pool, in gras_lan's 0.1 s slices.
std::vector<GrasLatency> gras_probe_slices(std::uint64_t seed, double seconds);

}  // namespace rb
