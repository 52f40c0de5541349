#pragma once

// Outside-in tracing for the benchmark's traced run. Nothing here reaches
// into the program: the router and the traffic source are wrapped in
// forwarding decorators that time every call the engine makes into them,
// and set-up calls are timed one by one around the public functions.
//
// Blind spots of measuring from outside (also listed in workloads.json):
//  * recurring price/probe/epoch ticks run as scheduler closures, not
//    Router hooks, so their time lands in the engine's self time;
//  * the scheduler is not split from engine mechanics;
//  * a hook's self time includes the engine calls it makes itself
//    (send_tu, fail_payment, schedule_timer).

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pcn/traffic_source.h"
#include "routing/router.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Call sites the decorators time. kHop = on_tu_forwarded + on_tu_delivered
/// + on_tu_failed; kOther = on_start, on_payment_timeout, on_payment_resolved.
enum class Hook : std::uint8_t { kOnPayment, kOnTimer, kHop, kOther, kSourceNext };
inline constexpr std::size_t kHookCount = 5;

/// Self seconds and call counts per hook for one engine run.
struct HookTimes {
  std::array<double, kHookCount> seconds{};
  std::array<std::uint64_t, kHookCount> calls{};

  [[nodiscard]] double& seconds_of(Hook h) { return seconds[static_cast<std::size_t>(h)]; }
  [[nodiscard]] std::uint64_t& calls_of(Hook h) { return calls[static_cast<std::size_t>(h)]; }
  [[nodiscard]] double total_seconds() const;
  void add(const HookTimes& other);
};

/// Nesting-aware span accounting: a hook entered while another is open (the
/// engine calls on_tu_forwarded from inside a router's send_tu) is charged
/// to its own bucket and subtracted from the enclosing one, so the buckets
/// sum to the wall time spent outside the engine exactly once.
class SpanStack {
 public:
  explicit SpanStack(HookTimes& times) : times_(times) {}
  SpanStack(const SpanStack&) = delete;
  SpanStack& operator=(const SpanStack&) = delete;

  class Scope {
   public:
    Scope(SpanStack& stack, Hook hook);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanStack& stack_;
    Hook hook_;
  };

 private:
  struct Frame {
    Clock::time_point start;
    double child_seconds = 0.0;
  };
  HookTimes& times_;
  std::vector<Frame> frames_;
};

/// Forwards every Router hook to `inner`, timing each call.
class TimedRouter final : public splicer::routing::Router {
 public:
  TimedRouter(splicer::routing::Router& inner, SpanStack& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_start(splicer::routing::Engine& engine) override;
  void on_payment(splicer::routing::Engine& engine,
                  const splicer::pcn::Payment& payment) override;
  void on_tu_delivered(splicer::routing::Engine& engine,
                       const splicer::routing::TransactionUnit& tu) override;
  void on_tu_failed(splicer::routing::Engine& engine,
                    const splicer::routing::TransactionUnit& tu,
                    splicer::routing::FailReason reason) override;
  void on_tu_forwarded(splicer::routing::Engine& engine,
                       const splicer::routing::TransactionUnit& tu,
                       splicer::pcn::ChannelId channel,
                       splicer::pcn::Direction direction) override;
  void on_payment_timeout(splicer::routing::Engine& engine,
                          splicer::pcn::PaymentId payment) override;
  void on_payment_resolved(splicer::routing::Engine& engine,
                           splicer::pcn::PaymentId payment) override;
  void on_timer(splicer::routing::Engine& engine, std::uint64_t a,
                std::uint64_t b) override;

 private:
  splicer::routing::Router& inner_;
  SpanStack& spans_;
};

/// Forwards a TrafficSource, timing next().
class TimedSource final : public splicer::pcn::TrafficSource {
 public:
  TimedSource(std::unique_ptr<splicer::pcn::TrafficSource> inner, SpanStack& spans)
      : inner_(std::move(inner)), spans_(spans) {}

  [[nodiscard]] std::optional<splicer::pcn::Payment> next() override;
  [[nodiscard]] std::size_t estimated_count() const override {
    return inner_->estimated_count();
  }
  void reset(std::uint64_t seed) override { inner_->reset(seed); }
  [[nodiscard]] double horizon_hint() const override { return inner_->horizon_hint(); }

 private:
  std::unique_ptr<splicer::pcn::TrafficSource> inner_;
  SpanStack& spans_;
};

}  // namespace perfbench
