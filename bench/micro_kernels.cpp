// Micro-benchmarks (google-benchmark) for the computational kernels behind
// the reproduction: graph algorithms, the LP/MILP solver, the supermodular
// double greedy, crypto primitives and the routing engine event loop.

#include <benchmark/benchmark.h>

#include "crypto/elgamal.h"
#include "crypto/shamir.h"
#include "graph/disjoint_paths.h"
#include "graph/generators.h"
#include "graph/max_flow.h"
#include "graph/shortest_path.h"
#include "graph/yen.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/milp_solver.h"
#include "routing/experiment.h"
#include "routing/spider_router.h"

namespace {

using namespace splicer;

graph::Graph make_graph(std::size_t n) {
  common::Rng rng(1);
  auto g = graph::watts_strogatz(n, 8, 0.15, rng);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_capacity(e, rng.uniform(10.0, 1000.0));
  }
  return g;
}

void BM_WattsStrogatz(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    common::Rng rng(7);
    benchmark::DoNotOptimize(graph::watts_strogatz(n, 8, 0.15, rng));
  }
}
BENCHMARK(BM_WattsStrogatz)->Arg(100)->Arg(1000)->Arg(3000);

void BM_Dijkstra(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(g, 0));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(100)->Arg(1000)->Arg(3000);

void BM_YenK5(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::yen_ksp(g, 0, static_cast<graph::NodeId>(g.node_count() / 2), 5));
  }
}
BENCHMARK(BM_YenK5)->Arg(100)->Arg(500);

void BM_EdgeDisjointWidest(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::edge_disjoint_widest_paths(
        g, 0, static_cast<graph::NodeId>(g.node_count() / 2), 5));
  }
}
BENCHMARK(BM_EdgeDisjointWidest)->Arg(100)->Arg(1000)->Arg(3000);

void BM_MaxFlow(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)));
  graph::MaxFlowOptions options;
  options.flow_limit = 500.0;
  options.max_paths = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(
        g, 0, static_cast<graph::NodeId>(g.node_count() / 2), options));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(100)->Arg(1000)->Arg(3000);

void BM_PlacementMilp(benchmark::State& state) {
  common::Rng rng(2);
  const auto g = graph::watts_strogatz(
      static_cast<std::size_t>(state.range(0)), 4, 0.2, rng);
  const auto instance =
      placement::build_instance_by_degree(g, static_cast<std::size_t>(state.range(1)), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::solve_milp(instance));
  }
}
BENCHMARK(BM_PlacementMilp)->Args({12, 3})->Args({16, 4})->Unit(benchmark::kMillisecond);

void BM_PlacementDoubleGreedy(benchmark::State& state) {
  common::Rng rng(3);
  const auto g = graph::watts_strogatz(
      static_cast<std::size_t>(state.range(0)), 8, 0.15, rng);
  const auto instance = placement::build_instance_by_degree(
      g, static_cast<std::size_t>(state.range(1)), 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement::solve_approx(instance));
  }
}
BENCHMARK(BM_PlacementDoubleGreedy)
    ->Args({100, 10})
    ->Args({1000, 30})
    ->Args({3000, 30})
    ->Unit(benchmark::kMillisecond);

void BM_ElGamalRoundTrip(benchmark::State& state) {
  common::Rng rng(4);
  const auto kp = crypto::generate_keypair(rng);
  const crypto::Bytes payload(64, 0xab);
  for (auto _ : state) {
    const auto ct = crypto::encrypt(kp.public_key, payload, rng);
    crypto::Bytes out;
    benchmark::DoNotOptimize(crypto::decrypt(kp.secret_key, ct, out));
  }
}
BENCHMARK(BM_ElGamalRoundTrip);

void BM_ShamirSplitReconstruct(benchmark::State& state) {
  common::Rng rng(5);
  for (auto _ : state) {
    const auto shares = crypto::split_secret(123456789, 5, 3, rng);
    benchmark::DoNotOptimize(
        crypto::reconstruct_secret({shares[0], shares[1], shares[2]}));
  }
}
BENCHMARK(BM_ShamirSplitReconstruct);

/// One rate-control tick (price updates + probes) at a controlled
/// dirty-channel fraction, via the public run_protocol_tick hook. A short
/// warm-up simulation seeds real pair/path/price state; each iteration
/// then feeds crafted TU arrivals into `dirty_pct` percent of the channels
/// (round-robin, deterministic) and runs one tick. Arg: dirty_pct — the
/// sweep shows how the per-tick cost grows as more of the network goes
/// dirty per tick (at 100% every flat changes every tick and nothing is
/// left to skip).
void BM_RateTick(benchmark::State& state) {
  const auto dirty_pct = static_cast<std::size_t>(state.range(0));
  auto g = make_graph(600);
  auto network =
      pcn::Network::with_uniform_funds(std::move(g), common::whole_tokens(400));
  const std::size_t channels = network.channel_count();

  // Warm-up workload: 60 sender/receiver pairs, four payments each, all
  // arriving inside the first two seconds; run_window(8) lets them resolve
  // so the tick loop below runs on settled-but-realistic router state.
  common::Rng rng(11);
  std::vector<pcn::Payment> payments;
  for (std::size_t i = 0; i < 240; ++i) {
    pcn::Payment p;
    p.id = i + 1;
    p.sender = static_cast<pcn::NodeId>(rng.next_below(600));
    do {
      p.receiver = static_cast<pcn::NodeId>(rng.next_below(600));
    } while (p.receiver == p.sender);
    p.value = common::whole_tokens(static_cast<pcn::Amount>(rng.uniform_int(2, 20)));
    p.arrival_time = rng.uniform(0.05, 2.0);
    p.deadline = p.arrival_time + 3.0;
    payments.push_back(p);
  }
  std::sort(payments.begin(), payments.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < payments.size(); ++i) {
    payments[i].id = i + 1;
  }

  routing::SpiderRouter router;
  routing::Engine engine(std::move(network), std::move(payments), router);
  engine.begin_run();
  (void)engine.run_window(8.0);

  const std::size_t dirty_count = channels * dirty_pct / 100;
  std::size_t next_channel = 0;
  routing::TransactionUnit tu;
  tu.hop_amounts = {common::whole_tokens(2)};
  tu.next_hop = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < dirty_count; ++i) {
      router.on_tu_forwarded(engine, tu,
                             static_cast<pcn::ChannelId>(next_channel % channels),
                             pcn::Direction::kForward);
      ++next_channel;
    }
    router.run_protocol_tick(engine);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * channels));
  state.counters["price_updates_skipped"] = static_cast<double>(
      engine.metrics().price_updates_skipped);
  state.counters["probe_sums_reused"] =
      static_cast<double>(engine.metrics().probe_sums_reused);
}
BENCHMARK(BM_RateTick)->Arg(0)->Arg(10)->Arg(100);

void BM_SplicerSimulation(benchmark::State& state) {
  routing::ScenarioConfig config;
  config.seed = 42;
  config.topology.nodes = static_cast<std::size_t>(state.range(0));
  config.placement.candidate_count = config.topology.nodes >= 1000 ? 30 : 10;
  config.placement.prefer_exact = config.topology.nodes < 1000;
  config.workload.payment_count = 500;
  config.workload.horizon_seconds = 8.0;
  const auto scenario = routing::prepare_scenario(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing::run_scheme(scenario, routing::Scheme::kSplicer));
  }
  state.SetItemsProcessed(state.iterations() * 500);  // payments per iter
}
BENCHMARK(BM_SplicerSimulation)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace
