#include "trace.h"

namespace perfbench {

namespace routing = splicer::routing;
namespace pcn = splicer::pcn;

double HookTimes::total_seconds() const {
  double total = 0.0;
  for (const double s : seconds) total += s;
  return total;
}

void HookTimes::add(const HookTimes& other) {
  for (std::size_t i = 0; i < kHookCount; ++i) {
    seconds[i] += other.seconds[i];
    calls[i] += other.calls[i];
  }
}

SpanStack::Scope::Scope(SpanStack& stack, Hook hook) : stack_(stack), hook_(hook) {
  stack_.frames_.push_back({Clock::now(), 0.0});
}

SpanStack::Scope::~Scope() {
  const Frame frame = stack_.frames_.back();
  stack_.frames_.pop_back();
  const double elapsed = seconds_since(frame.start);
  stack_.times_.seconds_of(hook_) += elapsed - frame.child_seconds;
  ++stack_.times_.calls_of(hook_);
  if (!stack_.frames_.empty()) stack_.frames_.back().child_seconds += elapsed;
}

void TimedRouter::on_start(routing::Engine& engine) {
  const SpanStack::Scope span(spans_, Hook::kOther);
  inner_.on_start(engine);
}

void TimedRouter::on_payment(routing::Engine& engine, const pcn::Payment& payment) {
  const SpanStack::Scope span(spans_, Hook::kOnPayment);
  inner_.on_payment(engine, payment);
}

void TimedRouter::on_tu_delivered(routing::Engine& engine,
                                  const routing::TransactionUnit& tu) {
  const SpanStack::Scope span(spans_, Hook::kHop);
  inner_.on_tu_delivered(engine, tu);
}

void TimedRouter::on_tu_failed(routing::Engine& engine,
                               const routing::TransactionUnit& tu,
                               routing::FailReason reason) {
  const SpanStack::Scope span(spans_, Hook::kHop);
  inner_.on_tu_failed(engine, tu, reason);
}

void TimedRouter::on_tu_forwarded(routing::Engine& engine,
                                  const routing::TransactionUnit& tu,
                                  pcn::ChannelId channel, pcn::Direction direction) {
  const SpanStack::Scope span(spans_, Hook::kHop);
  inner_.on_tu_forwarded(engine, tu, channel, direction);
}

void TimedRouter::on_payment_timeout(routing::Engine& engine, pcn::PaymentId payment) {
  const SpanStack::Scope span(spans_, Hook::kOther);
  inner_.on_payment_timeout(engine, payment);
}

void TimedRouter::on_payment_resolved(routing::Engine& engine, pcn::PaymentId payment) {
  const SpanStack::Scope span(spans_, Hook::kOther);
  inner_.on_payment_resolved(engine, payment);
}

void TimedRouter::on_timer(routing::Engine& engine, std::uint64_t a, std::uint64_t b) {
  const SpanStack::Scope span(spans_, Hook::kOnTimer);
  inner_.on_timer(engine, a, b);
}

std::optional<pcn::Payment> TimedSource::next() {
  const SpanStack::Scope span(spans_, Hook::kSourceNext);
  return inner_->next();
}

}  // namespace perfbench
