#include "obs/metrics.hpp"

#include <cstdlib>
#include <sstream>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace sks::obs {

namespace {

bool initial_enabled() {
  const char* env = std::getenv("SKS_PROFILE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Atomic: workers consult the flag while a driver thread may flip it.
std::atomic<bool> g_enabled{initial_enabled()};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void TimerStat::record_ns(std::uint64_t ns) {
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t seen = min_ns_.load(std::memory_order_relaxed);
  while (ns < seen &&
         !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  seen = max_ns_.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

void TimerStat::reset() {
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
  min_ns_.store(kNoMin, std::memory_order_relaxed);
  max_ns_.store(0, std::memory_order_relaxed);
}

void StreamStat::record(double x) {
  // Resolved outside the stream lock: registry() takes its own mutex on
  // first use, and taking it while holding mutex_ would invert the
  // registry-then-stream order the snapshot path uses.
  static Counter& updates = registry().counter("obs.stream_updates");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    summary_.add(x);
  }
  updates.inc();
}

stream::StreamSummary StreamStat::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_;
}

std::size_t StreamStat::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_.count();
}

void StreamStat::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  summary_.reset();
}

namespace {

template <typename Map, typename... Args>
auto& get_or_create(Map& map, const std::string& name, Args&&... args) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name,
                     std::make_unique<typename Map::mapped_type::element_type>(
                         std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(gauges_, name);
}

TimerStat& Registry::timer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(timers_, name);
}

StreamStat& Registry::stream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return get_or_create(streams_, name);
}

util::Histogram& Registry::histogram(const std::string& name, double lo,
                                     double hi, std::size_t bins) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return get_or_create(histograms_, name, lo, hi, bins);
  }
  util::Histogram& existing = *it->second;
  if (existing.lo() != lo || existing.hi() != hi || existing.bins() != bins) {
    // The counter bump goes through the map directly — our mutex is not
    // recursive, so this->counter() would deadlock here.
    get_or_create(counters_, "obs.histogram_range_mismatch").inc();
    lock.unlock();  // entry addresses are stable; journal() locks its own
    if (journal().enabled()) {
      std::ostringstream msg;
      msg << "histogram '" << name << "' re-requested with range [" << lo
          << ", " << hi << "]/" << bins << " bins; keeping existing ["
          << existing.lo() << ", " << existing.hi() << "]/"
          << existing.bins();
      Event event;
      event.type = EventType::kWarning;
      event.detail = msg.str();
      journal().record(std::move(event));
    }
  }
  return existing;
}

void Registry::histogram_add(const std::string& name, double lo, double hi,
                             std::size_t bins, double x) {
  util::Histogram& h = histogram(name, lo, hi, bins);
  std::lock_guard<std::mutex> lock(mutex_);
  h.add(x);
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const TimerStat* Registry::find_timer(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? nullptr : it->second.get();
}

const StreamStat* Registry::find_stream(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.get();
}

Snapshot Registry::snapshot(const Journal& j, const Tracer& tracer) const {
  Snapshot snap;
  // The buffer totals are read before the registry lock: the journal and
  // tracer take their own mutexes, and no order between those and ours is
  // established anywhere else.
  snap.journal = {j.total_recorded(), j.dropped()};
  snap.trace = {tracer.event_count(), tracer.dropped()};
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.timers.reserve(timers_.size());
  for (const auto& [name, t] : timers_) {
    snap.timers.emplace_back(
        name, Snapshot::Timer{t->count(), t->total_ns(), t->min_ns(),
                              t->max_ns()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    Snapshot::Histogram row{h->lo(), h->hi(), {}};
    row.counts.reserve(h->bins());
    for (std::size_t i = 0; i < h->bins(); ++i) {
      row.counts.push_back(h->bin_count(i));
    }
    snap.histograms.emplace_back(name, std::move(row));
  }
  // Each summary is copied under its stream's own mutex (registry, then
  // stream: the order StreamStat::record keeps), so this is safe while
  // workers record.
  snap.streams.reserve(streams_.size());
  for (const auto& [name, s] : streams_) {
    snap.streams.emplace_back(name, s->snapshot());
  }
  return snap;
}

Snapshot Registry::snapshot() const { return snapshot(journal(), tracer()); }

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : streams_) s->reset();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace sks::obs
