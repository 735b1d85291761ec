#include "common/trace.h"

#include <algorithm>
#include <sstream>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace datalinks::trace {

namespace {
std::atomic<TraceId>& TraceIdCounter() {
  static std::atomic<TraceId> next{1};
  return next;
}

std::atomic<SpanId>& SpanIdCounter() {
  static std::atomic<SpanId> next{1};
  return next;
}

thread_local TraceContext* g_trace_ctx = nullptr;
}  // namespace

TraceId NextTraceId() {
  return TraceIdCounter().fetch_add(1, std::memory_order_relaxed);
}

SpanId NextSpanId() {
  return SpanIdCounter().fetch_add(1, std::memory_order_relaxed);
}

void ResetNextTraceIdForTest(TraceId next) {
  TraceIdCounter().store(next == 0 ? 1 : next, std::memory_order_relaxed);
}

void ResetNextSpanIdForTest(SpanId next) {
  SpanIdCounter().store(next == 0 ? 1 : next, std::memory_order_relaxed);
}

TraceRing::TraceRing(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 1024));
}

void TraceRing::Record(TraceId trace, uint64_t txn, const std::string& name,
                       const std::string& component, int64_t ts_micros) {
  if (!metrics::kEnabled) return;  // tracing shares the metrics kill switch
  SpanEvent ev;
  ev.trace = trace;
  ev.span = NextSpanId();
  ev.txn = txn;
  ev.name = name;
  ev.component = component;
  ev.ts_micros = ts_micros;
  Record(std::move(ev));
}

void TraceRing::Record(SpanEvent ev) {
  if (!metrics::kEnabled) return;
  DLX_DEBUG("trace", "span " << ev.name << " trace=" << ev.trace
                             << " span=" << ev.span << " parent=" << ev.parent
                             << " txn=" << ev.txn << " at=" << ev.component
                             << " ts=" << ev.ts_micros
                             << " dur=" << ev.dur_micros);
  std::lock_guard<std::mutex> lk(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[next_] = std::move(ev);  // overwrite oldest
  next_ = (next_ + 1) % capacity_;
  if (auto* c = dropped_counter_.load(std::memory_order_relaxed)) c->Add(1);
}

std::vector<SpanEvent> TraceRing::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  // Once full, next_ points at the oldest event.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanEvent> TraceRing::ForTrace(TraceId trace) const {
  std::vector<SpanEvent> out;
  for (auto& ev : Snapshot()) {
    if (ev.trace == trace) out.push_back(std::move(ev));
  }
  return out;
}

std::string TraceRing::DumpJson() const {
  const std::vector<SpanEvent> spans = Snapshot();
  std::ostringstream os;
  os << "{\"capacity\":" << capacity_ << ",\"dropped\":" << dropped()
     << ",\"spans\":[";
  bool first = true;
  for (const auto& ev : spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"trace\":" << ev.trace << ",\"span\":" << ev.span
       << ",\"parent\":" << ev.parent << ",\"txn\":" << ev.txn << ",\"name\":\""
       << metrics::JsonEscape(ev.name) << "\",\"component\":\""
       << metrics::JsonEscape(ev.component) << "\",\"ts_micros\":" << ev.ts_micros
       << ",\"dur_micros\":" << ev.dur_micros << "}";
  }
  os << "]}";
  return os.str();
}

uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_ - ring_.size();
}

void TraceRing::Clear() {
  std::lock_guard<std::mutex> lk(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

void TraceRing::BindMetrics(metrics::Registry* reg) {
  dropped_counter_.store(reg ? reg->GetCounter("trace.ring.dropped") : nullptr,
                         std::memory_order_relaxed);
}

const std::shared_ptr<TraceRing>& TraceRing::Default() {
  static const std::shared_ptr<TraceRing> kDefault =
      std::make_shared<TraceRing>();
  return kDefault;
}

TraceContextScope::TraceContextScope(TraceId trace, uint64_t txn,
                                     TraceRing* ring, const Clock* clock,
                                     std::string component)
    : prev_(g_trace_ctx) {
  ctx_.trace = trace;
  ctx_.txn = txn;
  ctx_.ring = ring;
  ctx_.clock = clock;
  ctx_.component = std::move(component);
  g_trace_ctx = &ctx_;
}

TraceContextScope::~TraceContextScope() { g_trace_ctx = prev_; }

TraceContext* CurrentTraceContext() { return g_trace_ctx; }

void SetCurrentTraceContext(TraceContext* ctx) { g_trace_ctx = ctx; }

namespace {
// Usable context or nullptr: traced, with a ring and a clock to read.
inline TraceContext* ActiveContext() {
  TraceContext* ctx = g_trace_ctx;
  if (!metrics::kEnabled || ctx == nullptr || ctx->trace == 0 ||
      ctx->ring == nullptr || ctx->clock == nullptr) {
    return nullptr;
  }
  return ctx;
}
}  // namespace

int64_t AmbientNowMicros() {
  TraceContext* ctx = ActiveContext();
  return ctx ? ctx->clock->NowMicros() : 0;
}

void Point(const std::string& name) {
  TraceContext* ctx = ActiveContext();
  if (!ctx) return;
  SpanEvent ev;
  ev.trace = ctx->trace;
  ev.span = NextSpanId();
  ev.parent = ctx->current;
  ev.txn = ctx->txn;
  ev.name = name;
  ev.component = ctx->component;
  ev.ts_micros = ctx->clock->NowMicros();
  ctx->ring->Record(std::move(ev));
}

void Interval(const std::string& name, int64_t start_micros,
              int64_t end_micros) {
  TraceContext* ctx = ActiveContext();
  if (!ctx || start_micros == 0) return;
  SpanEvent ev;
  ev.trace = ctx->trace;
  ev.span = NextSpanId();
  ev.parent = ctx->current;
  ev.txn = ctx->txn;
  ev.name = name;
  ev.component = ctx->component;
  ev.ts_micros = start_micros;
  ev.dur_micros = end_micros > start_micros ? end_micros - start_micros : 0;
  ctx->ring->Record(std::move(ev));
}

SpanScope::SpanScope(std::string name) {
  TraceContext* ctx = ActiveContext();
  if (!ctx) return;
  ctx_ = ctx;
  name_ = std::move(name);
  span_ = NextSpanId();
  saved_parent_ = ctx->current;
  ctx->current = span_;
  t0_ = ctx->clock->NowMicros();
}

SpanScope::~SpanScope() {
  if (!ctx_) return;
  ctx_->current = saved_parent_;
  SpanEvent ev;
  ev.trace = ctx_->trace;
  ev.span = span_;
  ev.parent = saved_parent_;
  ev.txn = ctx_->txn;
  ev.name = std::move(name_);
  ev.component = ctx_->component;
  ev.ts_micros = t0_;
  const int64_t t1 = ctx_->clock->NowMicros();
  ev.dur_micros = t1 > t0_ ? t1 - t0_ : 0;
  ctx_->ring->Record(std::move(ev));
}

}  // namespace datalinks::trace
