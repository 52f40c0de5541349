#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "graph/generators.h"
#include "placement/approx_solver.h"
#include "placement/cost_model.h"
#include "placement/exhaustive_solver.h"
#include "placement/milp_solver.h"
#include "routing/a2l_router.h"
#include "routing/experiment.h"
#include "routing/flash_router.h"
#include "routing/landmark_router.h"
#include "routing/sharded_engine.h"
#include "routing/shortest_path_router.h"
#include "routing/spider_router.h"
#include "routing/splicer_router.h"
#include "host_speed.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace splicer;
using routing::Scheme;

constexpr std::array<Scheme, 6> kSchemes = {
    Scheme::kSplicer, Scheme::kSpider, Scheme::kFlash,
    Scheme::kLandmark, Scheme::kA2l,   Scheme::kShortestPath};

const char* scheme_key(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSplicer: return "splicer";
    case Scheme::kSpider: return "spider";
    case Scheme::kFlash: return "flash";
    case Scheme::kLandmark: return "landmark";
    case Scheme::kA2l: return "a2l";
    case Scheme::kShortestPath: return "shortest_path";
  }
  return "unknown";
}

enum class Solver : std::uint8_t {
  kExhaustive,  // exact enumeration (what prepare_scenario picks at <= 14 candidates)
  kApprox,      // supermodular double greedy (paper Alg. 1)
  kMilp,        // simplex + branch and bound, cross-checked against exhaustive
};

struct Workload {
  std::string name;
  routing::ScenarioConfig scenario;  // seed set per scenario
  routing::SchemeConfig scheme;      // hostile.seed set per scenario
  Solver solver = Solver::kExhaustive;
  std::size_t scenarios = 1;         // scenario seeds per run
  /// Untraced set-ups and placement solves per scenario per pass (at most
  /// one per scheme). These operations are short, so several samples
  /// interleaved with the simulations give their median enough spread.
  std::size_t cheap_samples = 4;
  bool shard_sweep = false;          // traced run only
};

// Hostile rates are taken from bench_fig_robustness's grid (events/s over
// the 25 s horizon); the timelock budget is that bench's policy panel's.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  auto& topo = w.scenario.topology;
  auto& place = w.scenario.placement;
  auto& load = w.scenario.workload;
  if (name == "fig7_small" || name == "hostile_batched") {
    topo.nodes = 100;
    place.candidate_count = 10;
    place.omega = 0.1;
    load.payment_count = 1500;
    load.horizon_seconds = 25.0;
    w.solver = Solver::kExhaustive;
    w.scenarios = 32;
    w.shard_sweep = name == "fig7_small";
    if (name == "hostile_batched") {
      auto& engine = w.scheme.engine;
      engine.settlement_epoch_s = 0.010;
      engine.hostile.fault_rate = 0.5;
      engine.hostile.mean_down_s = 0.5;
      engine.hostile.churn_rate = 0.5;
      engine.hostile.mean_closed_s = 0.5;
      engine.hostile.fee_policy_rate = 0.5;
      engine.hostile.timelock_rate = 0.5;
      engine.hostile.timelock_max = 4;
      engine.hostile.timelock_budget = 24;
    }
  } else if (name == "fig8_large") {
    topo.nodes = 3000;
    place.candidate_count = 30;
    place.prefer_exact = false;
    place.omega = 0.1;
    load.payment_count = 3000;
    load.horizon_seconds = 18.0;
    w.solver = Solver::kApprox;
    w.scenarios = 2;
  } else if (name == "placement_milp") {
    topo.nodes = 20;
    place.candidate_count = 3;
    place.omega = 0.1;
    load.payment_count = 200;
    load.horizon_seconds = 10.0;
    w.solver = Solver::kMilp;
    w.scenarios = 96;
    w.cheap_samples = 1;  // a MILP solve is not cheap
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---- correctness ------------------------------------------------------------

/// Empty when the simulation's outputs hold the run invariants, else why not.
std::string check_simulation(const routing::EngineMetrics& m,
                             std::size_t expected_payments) {
  if (m.payments_generated != expected_payments) return "payments_generated != workload size";
  if (m.payments_completed + m.payments_failed != m.payments_generated) {
    return "payments_completed + payments_failed != payments_generated";
  }
  if (m.resident_tus_at_end != 0) return "resident_tus_at_end != 0";
  if (m.wedged_queue_value != 0) return "wedged_queue_value != 0";
  return {};
}

bool same_plan(const placement::PlacementPlan& a, const placement::PlacementPlan& b) {
  return a.placed == b.placed && a.assignment == b.assignment;
}

bool same_cost(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

// ---- digest of every simulated EngineMetrics counter ------------------------

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof v);
    add(bits);
  }
  void add(const common::RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.sum());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(const routing::EngineMetrics& m) {
  Digest d;
  const auto u = [&d](auto v) { d.add(static_cast<std::uint64_t>(v)); };
  u(m.payments_generated);
  u(m.payments_completed);
  u(m.payments_failed);
  u(m.value_generated);
  u(m.value_completed);
  u(m.tus_sent);
  u(m.tus_delivered);
  u(m.tus_failed);
  u(m.tus_marked);
  for (const auto v : m.tu_fail_reasons) u(v);
  for (const auto v : m.payment_fail_reasons) u(v);
  u(m.messages.data_hops);
  u(m.messages.ack_messages);
  u(m.messages.probe_messages);
  u(m.messages.sync_messages);
  u(m.messages.control_messages);
  d.add(m.simulated_seconds);
  u(m.scheduler_events);
  u(m.settlement_flushes);
  u(m.settlements_batched);
  u(m.peak_payment_buffer);
  u(m.peak_resident_states);
  u(m.states_evicted);
  d.add(m.completion_delay_stats);
  d.add(m.tus_per_payment_stats);
  u(m.failed_delivered_value);
  u(m.cross_shard_messages);
  u(m.shard_barriers);
  u(m.shard_critical_path_events);
  u(m.price_updates_skipped);
  u(m.probe_sums_reused);
  u(m.active_pairs_peak);
  u(m.mutation_events);
  u(m.resident_tus_at_end);
  u(m.wedged_queue_value);
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t combine(const std::vector<std::uint64_t>& digests) {
  Digest d;
  for (const auto v : digests) d.add(v);
  return d.value();
}

// ---- scenarios and set-up -------------------------------------------------

/// Sum over operations of each one's median sample (per_op[i] holds every
/// timing of operation i in the run).
double sum_of_medians(const std::vector<std::vector<double>>& per_op) {
  double total = 0.0;
  for (const auto& samples : per_op) total += median(samples);
  return total;
}

/// Scenario seeds of one run: --seed n selects n*K+1 .. n*K+K.
std::vector<std::uint64_t> scenario_seeds(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < w.scenarios; ++i) seeds.push_back(seed * w.scenarios + 1 + i);
  return seeds;
}

routing::ScenarioConfig config_for(const Workload& w, std::uint64_t scenario_seed) {
  routing::ScenarioConfig config = w.scenario;
  config.seed = scenario_seed;
  return config;
}

routing::SchemeConfig scheme_config_for(const Workload& w, std::uint64_t scenario_seed) {
  routing::SchemeConfig config = w.scheme;
  config.engine.hostile.seed ^= scenario_seed * 0x9e3779b97f4a7c15ull;
  return config;
}

/// Per-layer set-up seconds (and counts), summed over a run's scenarios.
struct SetupLayers {
  double generate_s = 0, fund_s = 0, instance_s = 0, solve_s = 0, transform_s = 0,
         workload_s = 0;
  std::uint64_t solve_evals = 0, hubs = 0;

  [[nodiscard]] double total_s() const {
    return generate_s + fund_s + instance_s + solve_s + transform_s + workload_s;
  }
};

/// routing::prepare_scenario, call by call, each public call timed.
routing::Scenario traced_prepare(const routing::ScenarioConfig& config, Solver solver,
                                 SetupLayers& layers) {
  auto t = Clock::now();
  const auto lap = [&t](double& into) {
    into += seconds_since(t);
    t = Clock::now();
  };
  if (config.topology.scale_free) {
    throw std::logic_error("traced_prepare: only Watts-Strogatz topologies");
  }
  common::Rng rng(config.seed);
  graph::Graph g = graph::watts_strogatz(config.topology.nodes, config.topology.ws_degree,
                                         config.topology.ws_beta, rng);
  lap(layers.generate_s);
  pcn::Network raw =
      pcn::Network::with_sampled_funds(std::move(g), config.topology.fund_scale, rng);
  lap(layers.fund_s);
  placement::PlacementInstance instance = placement::build_instance_by_degree(
      raw.topology(), config.placement.candidate_count, config.placement.omega);
  lap(layers.instance_s);
  placement::PlacementPlan plan;
  if (solver == Solver::kApprox) {
    auto result = placement::solve_approx(instance);
    layers.solve_evals += result.oracle_calls;
    plan = std::move(result.plan);
  } else {
    auto result = placement::solve_exhaustive(instance);
    layers.solve_evals += result.subsets_evaluated;
    plan = std::move(result.plan);
  }
  layers.hubs += plan.hub_count();
  lap(layers.solve_s);
  placement::TransformResult multi_star = placement::build_multi_star(raw, instance, plan);
  placement::TransformResult single_star = placement::build_single_star(raw);
  lap(layers.transform_s);
  std::vector<pcn::NodeId> clients;
  for (pcn::NodeId v = 0; v < raw.node_count(); ++v) {
    if (!multi_star.is_hub[v] && v != single_star.hubs.front()) clients.push_back(v);
  }
  config.workload.validate();
  const common::Rng workload_rng = rng;
  std::vector<pcn::Payment> payments;
  {
    const auto source = pcn::make_traffic_source(clients, config.workload, workload_rng);
    payments = pcn::drain(*source);
  }
  lap(layers.workload_s);
  return routing::Scenario{std::move(raw),      std::move(multi_star),
                           std::move(single_star), std::move(instance),
                           std::move(plan),     std::move(payments),
                           std::move(clients),  config.workload,
                           workload_rng,        0};
}

/// (Re)builds every scenario of the run and returns each one's set-up
/// seconds. Untraced it calls routing::prepare_scenario; traced it makes
/// the same calls one by one and charges them to `layers`.
std::vector<double> set_up(const Workload& w, const std::vector<std::uint64_t>& seeds,
                           std::vector<routing::Scenario>& scenarios, SetupLayers* layers) {
  scenarios.clear();
  std::vector<double> seconds;
  for (const auto seed : seeds) {
    const auto start = Clock::now();
    scenarios.push_back(layers ? traced_prepare(config_for(w, seed), w.solver, *layers)
                               : routing::prepare_scenario(config_for(w, seed)));
    seconds.push_back(seconds_since(start));
  }
  return seconds;
}

// ---- simulation and placement passes -----------------------------------------

/// Per-scheme layer split of the traced run.
struct SchemeLayers {
  double run_s = 0.0;  // Engine::run()
  HookTimes hooks;
  std::uint64_t events = 0, tus_sent = 0, tus_delivered = 0;
};

/// Counts read off EngineMetrics in the traced run.
struct EngineCounts {
  std::uint64_t flushes = 0, batched = 0, mutations = 0, prices_skipped = 0,
                probes_reused = 0, active_pairs_peak = 0;

  void add(const routing::EngineMetrics& m) {
    flushes += m.settlement_flushes;
    batched += m.settlements_batched;
    mutations += m.mutation_events;
    prices_skipped += m.price_updates_skipped;
    probes_reused += m.probe_sums_reused;
    active_pairs_peak = std::max<std::uint64_t>(active_pairs_peak, m.active_pairs_peak);
  }
};

/// Solver-layer split of the traced placement_milp run.
struct SolverLayers {
  double milp_build_s = 0, milp_solve_s = 0, exhaustive_s = 0, approx_s = 0;
  std::uint64_t bnb_nodes = 0, bnb_pruned = 0, milp_variables = 0, approx_oracle_calls = 0;
};

struct Trace {
  std::array<SchemeLayers, kSchemes.size()> schemes;
  EngineCounts counts;
  SolverLayers solvers;
};

/// run_scheme with a timed router and source around the same engine set-up.
routing::EngineMetrics run_traced(const routing::Scenario& scenario, Scheme scheme,
                                  routing::SchemeConfig config, SchemeLayers& layers) {
  HookTimes hooks;
  SpanStack spans(hooks);
  routing::EngineMetrics metrics;
  const auto drive = [&](const pcn::Network& network, routing::Router& inner) {
    TimedRouter router(inner, spans);
    routing::Engine engine(network,
                           std::make_unique<TimedSource>(scenario.make_source(), spans),
                           router, config.engine);
    const auto start = Clock::now();
    metrics = engine.run();
    layers.run_s += seconds_since(start);
  };
  switch (scheme) {
    case Scheme::kSplicer: {
      config.engine.queues_enabled = true;
      routing::SplicerRouter::Config rc;
      rc.protocol = config.protocol;
      routing::SplicerRouter router(scenario.multi_star.hub_of, scenario.multi_star.hubs, rc);
      drive(scenario.multi_star.network, router);
      break;
    }
    case Scheme::kSpider: {
      config.engine.queues_enabled = true;
      routing::SpiderRouter::Config rc;
      rc.protocol = config.protocol;
      rc.protocol.path_type = graph::PathType::kEdgeDisjointShortest;
      routing::SpiderRouter router(rc);
      drive(scenario.raw, router);
      break;
    }
    case Scheme::kFlash: {
      config.engine.queues_enabled = false;
      routing::FlashRouter router;
      drive(scenario.raw, router);
      break;
    }
    case Scheme::kLandmark: {
      config.engine.queues_enabled = false;
      routing::LandmarkRouter router;
      drive(scenario.raw, router);
      break;
    }
    case Scheme::kA2l: {
      config.engine.queues_enabled = false;
      routing::A2lRouter::Config rc;
      rc.hub = scenario.single_star.hubs.front();
      rc.epoch_s = config.protocol.tau_s;
      routing::A2lRouter router(rc);
      drive(scenario.single_star.network, router);
      break;
    }
    case Scheme::kShortestPath: {
      config.engine.queues_enabled = false;
      routing::ShortestPathRouter router;
      drive(scenario.raw, router);
      break;
    }
  }
  layers.hooks.add(hooks);
  layers.events += metrics.scheduler_events;
  layers.tus_sent += metrics.tus_sent;
  layers.tus_delivered += metrics.tus_delivered;
  return metrics;
}

struct Pass {
  std::vector<std::vector<double>> setup_s;  // per scenario, untraced passes only
  std::vector<std::vector<double>> solve_s;  // per scenario
  std::vector<double> sim_s;                 // per (scenario, scheme), scenario-major
  std::uint64_t resolved = 0, attempted = 0, failed = 0;
  double splicer_tsr = 0.0, splicer_throughput = 0.0;  // means over scenarios
  std::vector<std::uint64_t> digests;                 // scenario-major, then scheme
};

void fail_op(Pass& pass, const std::string& what, const std::string& why) {
  ++pass.failed;
  std::cout << "FAILED " << what << ": " << why << "\n";
}

/// One placement solve of the workload's solver on one scenario's instance,
/// checked against the plan the scenario was built with; returns its seconds.
double solve_placement(const Workload& w, const routing::Scenario& sc, std::uint64_t seed,
                       Pass& pass, SolverLayers* layers) {
  const std::string what = w.name + " seed=" + std::to_string(seed) + " placement";
  ++pass.attempted;
  const auto start = Clock::now();
  std::string error;
  if (w.solver == Solver::kExhaustive) {
    if (!same_plan(placement::solve_exhaustive(sc.instance).plan, sc.plan)) {
      error = "exhaustive plan differs from the scenario's";
    }
  } else if (w.solver == Solver::kApprox) {
    if (!same_plan(placement::solve_approx(sc.instance).plan, sc.plan)) {
      error = "double-greedy plan differs from the scenario's";
    }
  } else {
    auto t = Clock::now();
    const auto lap = [&t, layers](double SolverLayers::*field) {
      if (layers != nullptr) layers->*field += seconds_since(t);
      t = Clock::now();
    };
    if (layers != nullptr) {
      const lp::Model model =
          placement::build_placement_milp(sc.instance, placement::MilpFormulation::kTight);
      layers->milp_variables = std::max<std::uint64_t>(layers->milp_variables,
                                                       model.variable_count());
      lap(&SolverLayers::milp_build_s);
    }
    const placement::MilpResult milp = placement::solve_milp(sc.instance);
    lap(&SolverLayers::milp_solve_s);
    const placement::ExhaustiveResult exact = placement::solve_exhaustive(sc.instance);
    lap(&SolverLayers::exhaustive_s);
    const placement::ApproxResult approx = placement::solve_approx(sc.instance);
    lap(&SolverLayers::approx_s);
    if (layers != nullptr) {
      layers->bnb_nodes += milp.stats.nodes_explored;
      layers->bnb_pruned += milp.stats.nodes_pruned_bound;
      layers->approx_oracle_calls += approx.oracle_calls;
    }
    const double optimum = placement::balance_cost(sc.instance, sc.plan).balance;
    if (milp.status != lp::SolveStatus::kOptimal) {
      error = std::string("MILP status ") + lp::to_string(milp.status);
    } else if (!same_cost(milp.costs.balance, exact.costs.balance) ||
               !same_cost(exact.costs.balance, optimum)) {
      error = "MILP objective " + std::to_string(milp.costs.balance) +
              " != exhaustive optimum " + std::to_string(exact.costs.balance);
    } else if (approx.costs.balance < optimum - 1e-6 * std::max(1.0, std::abs(optimum))) {
      error = "double greedy beat the exact optimum";
    }
  }
  const double elapsed = seconds_since(start);
  if (!error.empty()) fail_op(pass, what, error);
  return elapsed;
}

/// One pass over the scenarios. Per scenario, every scheme is simulated;
/// before the first cheap_samples simulations (one, traced) the placement
/// is solved again and, untraced, the scenario is rebuilt with
/// prepare_scenario, so those short operations are sampled spread over the
/// scenario's simulations rather than back to back.
Pass run_pass(const Workload& w, std::vector<routing::Scenario>& scenarios,
              const std::vector<std::uint64_t>& seeds, HostSpeed& speed, Trace* trace) {
  Pass pass;
  const std::size_t samples = trace ? 1 : w.cheap_samples;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!trace) pass.setup_s.emplace_back();
    pass.solve_s.emplace_back();
    const routing::SchemeConfig config = scheme_config_for(w, seeds[i]);
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      if (s < samples) {
        if (!trace) {
          const auto start = Clock::now();
          scenarios[i] = routing::prepare_scenario(config_for(w, seeds[i]));
          pass.setup_s.back().push_back(seconds_since(start));
        }
        pass.solve_s.back().push_back(solve_placement(w, scenarios[i], seeds[i], pass,
                                                      trace ? &trace->solvers : nullptr));
      }
      speed.sample();
      const Scheme scheme = kSchemes[s];
      ++pass.attempted;
      const auto start = Clock::now();
      const routing::EngineMetrics m =
          trace ? run_traced(scenarios[i], scheme, config, trace->schemes[s])
                : routing::run_scheme(scenarios[i], scheme, config);
      pass.sim_s.push_back(seconds_since(start));
      if (trace) trace->counts.add(m);
      pass.resolved += m.payments_completed + m.payments_failed;
      pass.digests.push_back(digest_of(m));
      if (scheme == Scheme::kSplicer) {
        pass.splicer_tsr += m.tsr() / static_cast<double>(scenarios.size());
        pass.splicer_throughput +=
            m.normalized_throughput() / static_cast<double>(scenarios.size());
      }
      const std::string error = check_simulation(m, scenarios[i].payments.size());
      if (!error.empty()) {
        fail_op(pass, w.name + " seed=" + std::to_string(seeds[i]) + " " +
                          routing::to_string(scheme),
                error);
      }
    }
  }
  return pass;
}

/// Seconds of a pass's simulations plus one (median) placement solve per
/// scenario, so passes with different solve sample counts compare.
double pass_seconds(const Pass& pass) {
  double total = sum_of_medians(pass.solve_s);
  for (const double s : pass.sim_s) total += s;
  return total;
}

/// Appends each operation's samples of one pass to the run's per-op lists.
void append_samples(std::vector<std::vector<double>>& per_op,
                    const std::vector<std::vector<double>>& pass) {
  per_op.resize(pass.size());
  for (std::size_t i = 0; i < pass.size(); ++i) {
    per_op[i].insert(per_op[i].end(), pass[i].begin(), pass[i].end());
  }
}

/// Counts digest mismatches against a reference pass as failed operations.
void check_digests(const std::vector<std::uint64_t>& reference, Pass& pass,
                   const std::string& label) {
  for (std::size_t i = 0; i < pass.digests.size(); ++i) {
    if (i >= reference.size() || pass.digests[i] != reference[i]) {
      fail_op(pass, label + " simulation #" + std::to_string(i),
              "EngineMetrics digest differs from the reference pass");
    }
  }
}

void print_digests(const Workload& w, const std::vector<std::uint64_t>& seeds,
                   const std::vector<std::uint64_t>& digests) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (std::size_t s = 0; s < kSchemes.size(); ++s) {
      std::cout << "digest " << w.name << " seed=" << seeds[i] << " "
                << scheme_key(kSchemes[s]) << " " << hex(digests[i * kSchemes.size() + s])
                << "\n";
    }
  }
  std::cout << "digest " << w.name << " all " << hex(combine(digests)) << "\n";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("peak_rss_mib: no VmHWM in /proc/self/status");
}

// ---- the two kinds of run ------------------------------------------------------

/// Repeats of the whole set-up + solve + simulate pass: at least this many,
/// then more while another one fits in --seconds. Each pass rebuilds the
/// scenarios, so every repeat also checks set-up determinism.
constexpr std::size_t kMinPasses = 2;

RunResult run_untraced(const Workload& w, const std::vector<std::uint64_t>& seeds,
                       double seconds, HostSpeed& speed) {
  std::vector<routing::Scenario> scenarios;
  (void)set_up(w, seeds, scenarios, nullptr);  // every pass rebuilds them, timed
  std::vector<std::vector<double>> setups, solves, sims;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  double pass_s = 0.0;  // the last pass's wall time
  do {
    const auto pass_start = Clock::now();
    passes.push_back(run_pass(w, scenarios, seeds, speed, nullptr));
    append_samples(setups, passes.back().setup_s);
    append_samples(solves, passes.back().solve_s);
    sims.resize(passes.back().sim_s.size());
    for (std::size_t i = 0; i < sims.size(); ++i) sims[i].push_back(passes.back().sim_s[i]);
    if (passes.size() > 1) {
      check_digests(passes.front().digests, passes.back(), w.name + " repeat");
    }
    pass_s = seconds_since(pass_start);
  } while (passes.size() < kMinPasses || seconds_since(start) + pass_s <= seconds);
  print_digests(w, seeds, passes.front().digests);
  std::cout << "passes " << passes.size() << ": each operation's time is the median of its "
            << passes.size() << " (simulations) or " << passes.size() * w.cheap_samples
            << " (set-ups, placement solves) samples\n";

  RunResult result;
  for (const Pass& p : passes) {
    result.attempted += p.attempted;
    result.failed += p.failed;
  }
  const Pass& first = passes.front();
  result.metrics = {
      {"payments_per_s", static_cast<double>(first.resolved) / sum_of_medians(sims), "1/s"},
      {"setup_s", sum_of_medians(setups), "s"},
      {"placements_per_s", static_cast<double>(seeds.size()) / sum_of_medians(solves), "1/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"splicer_tsr", first.splicer_tsr, "ratio"},
      {"splicer_throughput", first.splicer_throughput, "ratio"},
  };
  return result;
}

struct ShardSweep {
  double speedup_2 = 0, speedup_4 = 0;
  std::uint64_t cross_messages = 0, barriers = 0;
};

/// All six schemes through run_scheme_sharded at 1, 2 and 4 shards, threads
/// capped at the host's cores; counts are those of the 4-shard runs.
ShardSweep shard_sweep(const Workload& w, const routing::Scenario& sc, std::uint64_t seed,
                       Pass& pass) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  ShardSweep sweep;
  double base_s = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const auto start = Clock::now();
    for (const Scheme scheme : kSchemes) {
      ++pass.attempted;
      const routing::EngineMetrics m = routing::run_scheme_sharded(
          sc, scheme, scheme_config_for(w, seed),
          {.shards = shards, .barrier_period_s = 0.0,
           .threads = std::min<std::size_t>(shards, cores)});
      const std::string error = check_simulation(m, sc.payments.size());
      if (!error.empty()) {
        fail_op(pass, w.name + " " + std::to_string(shards) + " shards " +
                          routing::to_string(scheme),
                error);
      }
      if (shards == 4) {
        sweep.cross_messages += m.cross_shard_messages;
        sweep.barriers += m.shard_barriers;
      }
    }
    const double elapsed = seconds_since(start);
    if (shards == 1) base_s = elapsed;
    if (shards == 2) sweep.speedup_2 = base_s / elapsed;
    if (shards == 4) sweep.speedup_4 = base_s / elapsed;
  }
  return sweep;
}

RunResult run_traced_workload(const Workload& w, const std::vector<std::uint64_t>& seeds,
                              HostSpeed& speed) {
  // Set-up: prepare_scenario against the same calls timed one by one,
  // alternated; the spans must account for the untraced set-up time.
  constexpr std::size_t kSetupRepeats = 5;
  // The untraced pass runs on prepare_scenario's scenarios and the traced
  // pass on the call-by-call ones, so equal digests also show that the
  // traced set-up built the same scenarios.
  std::vector<routing::Scenario> scenarios, traced_scenarios;
  std::vector<double> untraced_totals;
  std::vector<SetupLayers> repeats;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const std::vector<double> per_scenario = set_up(w, seeds, scenarios, nullptr);
    untraced_totals.push_back(std::accumulate(per_scenario.begin(), per_scenario.end(), 0.0));
    (void)set_up(w, seeds, traced_scenarios, &repeats.emplace_back());
  }
  std::sort(repeats.begin(), repeats.end(), [](const SetupLayers& a, const SetupLayers& b) {
    return a.total_s() < b.total_s();
  });
  const SetupLayers& layers = repeats[repeats.size() / 2];  // the median repeat

  Pass plain = run_pass(w, scenarios, seeds, speed, nullptr);
  Trace trace;
  Pass traced = run_pass(w, traced_scenarios, seeds, speed, &trace);
  check_digests(plain.digests, traced, w.name + " traced");
  std::cout << "digest " << w.name << " untraced " << hex(combine(plain.digests))
            << " traced " << hex(combine(traced.digests)) << "\n";

  Pass extra;
  ShardSweep sweep;
  if (w.shard_sweep) sweep = shard_sweep(w, scenarios.front(), seeds.front(), extra);

  RunResult result;
  for (const Pass* p : {&plain, &traced, &extra}) {
    result.attempted += p->attempted;
    result.failed += p->failed;
  }
  auto& out = result.metrics;
  out = {
      {"graph.generate_s", layers.generate_s, "s"},
      {"pcn.fund_s", layers.fund_s, "s"},
      {"placement.instance_s", layers.instance_s, "s"},
      {"placement.solve_s", layers.solve_s, "s"},
      {"placement.solve_evals", static_cast<double>(layers.solve_evals), "count"},
      {"placement.hubs", static_cast<double>(layers.hubs), "count"},
      {"placement.transform_s", layers.transform_s, "s"},
      {"pcn.workload_s", layers.workload_s, "s"},
      {"trace.setup_coverage", layers.total_s() / median(untraced_totals), "ratio"},
  };
  HookTimes all_hooks;
  for (std::size_t s = 0; s < kSchemes.size(); ++s) {
    const SchemeLayers& l = trace.schemes[s];
    HookTimes hooks = l.hooks;
    all_hooks.add(hooks);
    const double self_s = l.run_s - hooks.total_seconds();
    std::uint64_t router_calls = 0;
    for (std::size_t h = 0; h < kHookCount; ++h) {
      if (h != static_cast<std::size_t>(Hook::kSourceNext)) router_calls += hooks.calls[h];
    }
    const std::string e = std::string("engine.") + scheme_key(kSchemes[s]) + ".";
    const std::string r = std::string("router.") + scheme_key(kSchemes[s]) + ".";
    out.push_back({e + "self_s", self_s, "s"});
    out.push_back({e + "events", static_cast<double>(l.events), "count"});
    out.push_back({e + "ns_per_event", l.events ? self_s * 1e9 / static_cast<double>(l.events) : 0.0, "ns"});
    out.push_back({e + "tu_delivery_ratio",
                   l.tus_sent ? static_cast<double>(l.tus_delivered) / static_cast<double>(l.tus_sent) : 0.0,
                   "ratio"});
    out.push_back({r + "on_payment_s", hooks.seconds_of(Hook::kOnPayment), "s"});
    out.push_back({r + "on_timer_s", hooks.seconds_of(Hook::kOnTimer), "s"});
    out.push_back({r + "hop_hooks_s", hooks.seconds_of(Hook::kHop), "s"});
    out.push_back({r + "other_s", hooks.seconds_of(Hook::kOther), "s"});
    out.push_back({r + "calls", static_cast<double>(router_calls), "count"});
  }
  const EngineCounts& c = trace.counts;
  const SolverLayers& sl = trace.solvers;
  const std::vector<Metric> rest = {
      {"source.next_s", all_hooks.seconds_of(Hook::kSourceNext), "s"},
      {"source.next_calls", static_cast<double>(all_hooks.calls_of(Hook::kSourceNext)), "count"},
      {"engine.settlement_flushes", static_cast<double>(c.flushes), "count"},
      {"engine.settlements_batched", static_cast<double>(c.batched), "count"},
      {"engine.mutation_events", static_cast<double>(c.mutations), "count"},
      {"rate.price_updates_skipped", static_cast<double>(c.prices_skipped), "count"},
      {"rate.probe_sums_reused", static_cast<double>(c.probes_reused), "count"},
      {"rate.active_pairs_peak", static_cast<double>(c.active_pairs_peak), "count"},
      {"shard.speedup_2", sweep.speedup_2, "x"},
      {"shard.speedup_4", sweep.speedup_4, "x"},
      {"shard.cross_messages", static_cast<double>(sweep.cross_messages), "count"},
      {"shard.barriers", static_cast<double>(sweep.barriers), "count"},
      {"lp.milp_build_s", sl.milp_build_s, "s"},
      {"lp.milp_solve_s", sl.milp_solve_s, "s"},
      {"lp.bnb_nodes", static_cast<double>(sl.bnb_nodes), "count"},
      {"lp.bnb_pruned", static_cast<double>(sl.bnb_pruned), "count"},
      {"lp.milp_variables", static_cast<double>(sl.milp_variables), "count"},
      {"placement.exhaustive_s", sl.exhaustive_s, "s"},
      {"placement.approx_s", sl.approx_s, "s"},
      {"placement.approx_oracle_calls", static_cast<double>(sl.approx_oracle_calls), "count"},
      {"trace.overhead_ratio", pass_seconds(traced) / pass_seconds(plain), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig7_small", "fig8_large",
                                                 "hostile_batched", "placement_milp"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  const Workload w = make_workload(options.workload);
  const std::vector<std::uint64_t> seeds = scenario_seeds(w, options.seed);
  std::cout << "workload " << w.name << ": " << w.scenarios << " scenarios, seeds "
            << seeds.front() << ".." << seeds.back() << ", " << kSchemes.size()
            << " schemes\n";
  HostSpeed speed;
  speed.sample(true);
  RunResult result = options.trace ? run_traced_workload(w, seeds, speed)
                                   : run_untraced(w, seeds, options.seconds, speed);
  speed.sample(true);

  // Timed metrics in reference seconds (see host_speed.h); the raw
  // host-second values are printed first.
  const double factor = speed.factor();
  std::cout << "host speed " << factor << " (median reference kernel seconds: memory "
            << speed.median_seconds(0) << ", compute " << speed.median_seconds(1) << ", "
            << speed.samples() << " samples); raw host-second values:";
  for (auto& m : result.metrics) {
    if (m.unit == "s" || m.unit == "ns") {
      std::cout << " " << m.name << "=" << m.value;
      m.value *= factor;
    } else if (m.unit == "1/s") {
      std::cout << " " << m.name << "=" << m.value;
      m.value /= factor;
    }
  }
  std::cout << "\n";
  if (options.trace) result.metrics.push_back({"host.speed_factor", factor, "x"});
  return result;
}

}  // namespace perfbench
