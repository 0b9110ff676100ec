/// Accuracy probe: the paper's validation experiment (10 random flows of
/// 100 MB on the 30-node BRITE/Waxman scenario of bench_common.hpp, seed
/// 2006), fluid rates against the NS2-like and GTNetS-like packet-level
/// references. Deterministic; run outside every timed phase.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "pkt/pkt.hpp"
#include "workloads.hpp"

namespace rb {
namespace {

constexpr int kNodes = 30;
constexpr int kFlows = 10;
constexpr double kBytes = 1e8;
constexpr std::uint64_t kScenarioSeed = 2006;

std::vector<double> fluid_rates(const bench::ValidationScenario& sc) {
  sg::core::Engine engine(sc.platform);
  std::vector<sg::core::ActionPtr> comms;
  for (const auto& f : sc.flows)
    comms.push_back(engine.comm_start(f.src, f.dst, kBytes));
  while (engine.running_action_count() > 0)
    engine.run_until();
  std::vector<double> rates;
  for (const auto& c : comms)
    rates.push_back(kBytes / c->finish_time());
  return rates;
}

std::vector<double> packet_rates(const bench::ValidationScenario& sc,
                                 const sg::pkt::TcpParams& params) {
  sg::pkt::PacketNet net(sc.platform, params);
  for (const auto& f : sc.flows)
    net.add_flow({f.src, f.dst, kBytes, 0.0});
  net.run();
  std::vector<double> rates;
  for (size_t i = 0; i < sc.flows.size(); ++i)
    rates.push_back(kBytes / net.result(static_cast<int>(i)).finish_time);
  return rates;
}

}  // namespace

double validation_error_pct() {
  sg::core::declare_engine_config();
  const auto sc = bench::make_validation_scenario(kNodes, kFlows, kScenarioSeed);
  const auto fluid = fluid_rates(sc);
  double worst = 0;
  for (const auto& ref : {packet_rates(sc, sg::pkt::TcpParams::ns2()),
                          packet_rates(sc, sg::pkt::TcpParams::gtnets())})
    for (size_t i = 0; i < fluid.size(); ++i)
      worst = std::max(worst, std::abs(100.0 * (fluid[i] - ref[i]) / ref[i]));
  return worst;
}

}  // namespace rb
