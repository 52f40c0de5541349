// Reference oracle for the incremental rate-control tick. The production
// tick (dirty-channel price updates, memoized probe sums, sleeping pairs)
// skips every per-tick update it can prove to be an identity. The oracle
// below is the plain full sweep — eqs. (21)-(22) for every channel and
// eq. (26) for every admitted path, every tick — run beside the real
// router as a forwarding decorator. After each tau tick it asserts that
// the router's channel prices and path rates equal the sweep's bit for
// bit, so a skipped update that was not an identity fails at the tick
// where it happens, not only in some end-of-run aggregate.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "routing/engine.h"
#include "routing/experiment.h"
#include "routing/sharded_engine.h"
#include "routing/spider_router.h"
#include "routing/splicer_router.h"

namespace splicer::routing {
namespace {

using common::whole_tokens;

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Forwards every hook to the wrapped rate router and, after each tau
/// tick, recomputes the tick from scratch and compares.
class FullSweepOracle final : public Router {
 public:
  explicit FullSweepOracle(std::unique_ptr<RateRouterBase> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::size_t ticks_checked() const { return ticks_checked_; }
  [[nodiscard]] std::size_t paths_checked() const { return paths_checked_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::string& first_mismatch() const {
    return first_mismatch_;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void on_start(Engine& engine) override {
    channels_.assign(engine.network().channel_count(), ChannelState{});
    admitted_.clear();
    rates_.clear();
    inner_->on_start(engine);
  }
  void on_payment(Engine& engine, const pcn::Payment& payment) override {
    admitted_.insert({payment.sender, payment.receiver});
    inner_->on_payment(engine, payment);
  }
  void on_tu_delivered(Engine& engine, const TransactionUnit& tu) override {
    inner_->on_tu_delivered(engine, tu);
  }
  void on_tu_failed(Engine& engine, const TransactionUnit& tu,
                    FailReason reason) override {
    inner_->on_tu_failed(engine, tu, reason);
  }
  void on_tu_forwarded(Engine& engine, const TransactionUnit& tu,
                       ChannelId channel, pcn::Direction direction) override {
    // m_a of eq. (22), accumulated in the router's own order.
    channels_[channel].arrived[pcn::dir_index(direction)] +=
        common::to_tokens(tu.hop_amounts[tu.next_hop]);
    inner_->on_tu_forwarded(engine, tu, channel, direction);
  }
  void on_payment_timeout(Engine& engine, PaymentId payment) override {
    inner_->on_payment_timeout(engine, payment);
  }
  void on_payment_resolved(Engine& engine, PaymentId payment) override {
    inner_->on_payment_resolved(engine, payment);
  }
  void on_timer(Engine& engine, std::uint64_t a, std::uint64_t b) override {
    const bool tick =
        b == RateRouterBase::kPriceTickTimer && !engine.past_horizon();
    // Pairs admitted since the last tick enter the sweep with the rates
    // they were created with; no tick has touched them yet.
    if (tick) seed_new_pairs();
    inner_->on_timer(engine, a, b);
    if (!tick) return;
    ++ticks_checked_;
    sweep_prices(engine);
    sweep_rates();
  }

 private:
  struct ChannelState {
    double lambda = 0.0;
    double mu[2] = {0.0, 0.0};
    double arrived[2] = {0.0, 0.0};
  };
  using Pair = std::pair<NodeId, NodeId>;

  [[nodiscard]] double xi(std::size_t channel, int dir) const {
    const auto& p = channels_[channel];
    return std::max(0.0, 2.0 * p.lambda + p.mu[dir] - p.mu[1 - dir]);
  }

  void mismatch(const std::string& what) {
    if (mismatches_++ == 0) {
      std::ostringstream out;
      out << "tick " << ticks_checked_ << ": " << what;
      first_mismatch_ = out.str();
    }
  }

  void seed_new_pairs() {
    for (const Pair& pair : admitted_) {
      if (rates_.contains(pair)) continue;
      const auto diagnostics = inner_->pair_diagnostics(pair.first, pair.second);
      if (diagnostics.empty()) continue;  // no path: never admitted
      auto& rates = rates_[pair];
      for (const auto& path : diagnostics) rates.push_back(path.rate_tps);
    }
  }

  /// Eqs. (21)-(22) applied to every channel.
  void sweep_prices(Engine& engine) {
    const auto& config = inner_->protocol_config();
    const auto& network = engine.network();
    for (ChannelId c = 0; c < channels_.size(); ++c) {
      auto& p = channels_[c];
      const auto& ch = network.channel(c);
      const double capacity_tokens = common::to_tokens(ch.capacity());
      const double scale = config.delta_rtt_s / config.tau_s;
      const double required = (p.arrived[0] + p.arrived[1]) * scale;
      const double cap = std::max(capacity_tokens, 1e-9);
      p.lambda = std::clamp(
          p.lambda + config.kappa * (required - capacity_tokens) / cap, 0.0,
          config.max_price);
      const double imbalance = p.arrived[0] - p.arrived[1];
      const double draining = common::to_tokens(
          ch.available(imbalance >= 0 ? pcn::Direction::kForward
                                      : pcn::Direction::kBackward));
      const double normaliser = std::clamp(draining, 0.01 * cap, cap / 3.0);
      const double urgency = imbalance / normaliser;
      p.mu[0] = std::clamp(p.mu[0] + config.eta * urgency, 0.0, config.max_price);
      p.mu[1] = std::clamp(p.mu[1] - config.eta * urgency, 0.0, config.max_price);
      p.lambda *= config.price_decay;
      p.mu[0] *= config.price_decay;
      p.mu[1] *= config.price_decay;
      p.arrived[0] = 0.0;
      p.arrived[1] = 0.0;
      for (int dir = 0; dir < 2; ++dir) {
        const double got =
            inner_->channel_price(c, static_cast<pcn::Direction>(dir));
        if (!same_bits(got, xi(c, dir))) {
          std::ostringstream out;
          out << "channel " << c << " dir " << dir << " price " << got
              << " != full sweep " << xi(c, dir);
          mismatch(out.str());
        }
      }
    }
  }

  /// Eqs. (25)-(26) applied to every path of every admitted pair.
  void sweep_rates() {
    const auto& config = inner_->protocol_config();
    for (auto& [pair, rates] : rates_) {
      const auto diagnostics = inner_->pair_diagnostics(pair.first, pair.second);
      if (diagnostics.size() != rates.size()) {
        mismatch("pair path count changed");
        continue;
      }
      double total = 0.0;
      for (const double r : rates) total += r;
      total = std::max(total, 1e-9);
      for (std::size_t i = 0; i < rates.size(); ++i) {
        double price = 0.0;
        for (const std::uint32_t idx : diagnostics[i].hop_index) {
          price += xi(idx / 2, static_cast<int>(idx % 2));
        }
        price *= (1.0 + config.t_fee);
        rates[i] = std::clamp(rates[i] + config.alpha * (1.0 / total - price),
                              config.min_rate_tps, config.max_rate_tps);
        ++paths_checked_;
        if (!same_bits(diagnostics[i].rate_tps, rates[i]) ||
            !same_bits(diagnostics[i].price, price)) {
          std::ostringstream out;
          out << "pair " << pair.first << "->" << pair.second << " path " << i
              << " rate " << diagnostics[i].rate_tps << " price "
              << diagnostics[i].price << " != full sweep rate " << rates[i]
              << " price " << price;
          mismatch(out.str());
        }
      }
    }
  }

  std::unique_ptr<RateRouterBase> inner_;
  std::vector<ChannelState> channels_;
  std::set<Pair> admitted_;
  std::map<Pair, std::vector<double>> rates_;
  std::size_t ticks_checked_ = 0;
  std::size_t paths_checked_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

void expect_oracle_agrees(const FullSweepOracle& oracle) {
  EXPECT_GT(oracle.ticks_checked(), 0u);
  EXPECT_GT(oracle.paths_checked(), 0u);
  EXPECT_EQ(oracle.mismatches(), 0u) << oracle.first_mismatch();
}

// ---- direct engine runs on a hand-built hub network ------------------------

pcn::Network hub_pair_network() {
  // Clients 0, 3 on hubs 1, 2; trunk 1-2. Clients 4, 5 never transact:
  // their spokes are the never-touched channels the incremental tick must
  // skip from the first tick on.
  graph::Graph g(6);
  g.add_edge(0, 1);  // spoke
  g.add_edge(1, 2);  // trunk
  g.add_edge(2, 3);  // spoke
  g.add_edge(1, 4);  // idle spoke
  g.add_edge(2, 5);  // idle spoke
  return pcn::Network::with_uniform_funds(std::move(g), whole_tokens(1000));
}

/// Two traffic bursts separated by a quiet gap: the gap retires channels
/// (prices decay to exact zero) and puts pairs to sleep; the second burst
/// exercises wake-on-demand, so both the skip and the re-activation paths
/// run under the oracle.
std::vector<pcn::Payment> bursty_stream(NodeId s, NodeId r, Amount v,
                                        PaymentId first_id) {
  std::vector<pcn::Payment> payments;
  PaymentId id = first_id;
  const auto burst = [&](double start, double seconds, double rate) {
    for (double t = start; t < start + seconds; t += 1.0 / rate) {
      pcn::Payment p;
      p.id = id++;
      p.sender = s;
      p.receiver = r;
      p.value = v;
      p.arrival_time = t;
      p.deadline = t + 3.0;
      payments.push_back(p);
    }
  };
  burst(0.05, 3.0, 4.0);
  burst(9.0, 2.0, 4.0);
  return payments;
}

std::vector<pcn::Payment> two_way_bursts() {
  auto payments = bursty_stream(0, 3, whole_tokens(12), 1);
  const auto reverse = bursty_stream(3, 0, whole_tokens(6), 1000);
  payments.insert(payments.end(), reverse.begin(), reverse.end());
  std::sort(payments.begin(), payments.end(), [](const auto& a, const auto& b) {
    return a.arrival_time < b.arrival_time;
  });
  for (std::size_t i = 0; i < payments.size(); ++i) payments[i].id = i + 1;
  return payments;
}

EngineMetrics run_direct(FullSweepOracle& oracle, double settlement_epoch_s) {
  EngineConfig config;
  config.queues_enabled = true;
  config.settlement_epoch_s = settlement_epoch_s;
  Engine engine(hub_pair_network(), two_way_bursts(), oracle, config);
  return engine.run();
}

std::unique_ptr<SplicerRouter> hub_pair_splicer() {
  SplicerRouter::Config config;
  config.protocol.k_paths = 1;
  return std::make_unique<SplicerRouter>(std::vector<NodeId>{1, 1, 2, 2, 1, 2},
                                         std::vector<NodeId>{1, 2}, config);
}

TEST(RateIncrementalTick, SplicerMatchesFullSweepPerHopSettlement) {
  FullSweepOracle oracle(hub_pair_splicer());
  const auto m = run_direct(oracle, 0.0);
  expect_oracle_agrees(oracle);
  EXPECT_GT(m.payments_completed, 0u);
  // The oracle only means something if the fast path actually skipped.
  EXPECT_GT(m.price_updates_skipped, 0u);
}

TEST(RateIncrementalTick, SplicerMatchesFullSweepBatchedSettlement) {
  FullSweepOracle oracle(hub_pair_splicer());
  const auto m = run_direct(oracle, 0.01);
  expect_oracle_agrees(oracle);
  EXPECT_GT(m.price_updates_skipped, 0u);
}

TEST(RateIncrementalTick, SpiderMatchesFullSweep) {
  FullSweepOracle oracle(std::make_unique<SpiderRouter>());
  const auto m = run_direct(oracle, 0.0);
  expect_oracle_agrees(oracle);
  EXPECT_GT(m.price_updates_skipped, 0u);
}

// ---- scenario-level runs (full pipeline, both rate schemes, shards) ---------

Scenario small_scenario() {
  ScenarioConfig config;
  config.seed = 7;
  config.topology.nodes = 60;
  config.placement.candidate_count = 6;
  config.workload.payment_count = 250;
  config.workload.horizon_seconds = 12.0;
  return prepare_scenario(config);
}

/// The rate router run_scheme builds for `scheme`, wrapped in the oracle.
std::unique_ptr<FullSweepOracle> oracle_router(const Scenario& scenario,
                                               Scheme scheme) {
  if (scheme == Scheme::kSplicer) {
    return std::make_unique<FullSweepOracle>(std::make_unique<SplicerRouter>(
        scenario.multi_star.hub_of, scenario.multi_star.hubs));
  }
  SpiderRouter::Config rc;
  rc.protocol.path_type = graph::PathType::kEdgeDisjointShortest;
  return std::make_unique<FullSweepOracle>(std::make_unique<SpiderRouter>(rc));
}

TEST(RateIncrementalTick, SchemesMatchFullSweepAcrossSettlementModes) {
  const auto scenario = small_scenario();
  for (const auto scheme : {Scheme::kSplicer, Scheme::kSpider}) {
    const pcn::Network& network = scheme == Scheme::kSplicer
                                      ? scenario.multi_star.network
                                      : scenario.raw;
    for (const double epoch_s : {0.0, 0.01}) {
      SCOPED_TRACE(std::string(to_string(scheme)) +
                   " epoch=" + std::to_string(epoch_s));
      EngineConfig config;
      config.queues_enabled = true;
      config.settlement_epoch_s = epoch_s;
      const auto oracle = oracle_router(scenario, scheme);
      Engine engine(network, scenario.make_source(), *oracle, config);
      const auto m = engine.run();
      expect_oracle_agrees(*oracle);
      // The wrapped run is the plain scheme run: the decorator only reads.
      SchemeConfig plain;
      plain.engine.settlement_epoch_s = epoch_s;
      EXPECT_EQ(m.scheduler_events,
                run_scheme(scenario, scheme, plain).scheduler_events);
      EXPECT_GT(m.price_updates_skipped, 0u);
      EXPECT_GT(m.probe_sums_reused, 0u);
      EXPECT_GT(m.active_pairs_peak, 0u);
    }
  }
}

TEST(RateIncrementalTick, ShardedSplicerMatchesFullSweep) {
  // Each shard's engine keeps its own dirty list and router, so every
  // shard's router is checked against its own oracle.
  const auto scenario = small_scenario();
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineConfig config;
    config.queues_enabled = true;
    ShardedEngineConfig sharded;
    sharded.shards = shards;
    ShardedEngine engine(
        scenario.multi_star.network, scenario.make_source(),
        [&](std::uint32_t) -> std::unique_ptr<Router> {
          return oracle_router(scenario, Scheme::kSplicer);
        },
        ShardPlan::hub_affinity(scenario.multi_star.network,
                                scenario.multi_star.hub_of,
                                scenario.multi_star.hubs, shards),
        config, sharded);
    const auto m = engine.run();
    std::size_t paths_checked = 0;
    for (std::uint32_t s = 0; s < engine.shard_count(); ++s) {
      const auto& oracle = static_cast<const FullSweepOracle&>(engine.router(s));
      EXPECT_GT(oracle.ticks_checked(), 0u) << "shard " << s;
      EXPECT_EQ(oracle.mismatches(), 0u)
          << "shard " << s << ": " << oracle.first_mismatch();
      paths_checked += oracle.paths_checked();
    }
    EXPECT_GT(paths_checked, 0u);
    EXPECT_GT(m.price_updates_skipped, 0u);
  }
}

}  // namespace
}  // namespace splicer::routing
