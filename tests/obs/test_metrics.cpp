#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/timer.hpp"

namespace sks::obs {
namespace {

// The obs enable flag is process-global; every test restores it so test
// order cannot leak profiling mode into other suites.
struct ObsFlagGuard {
  bool saved = enabled();
  ~ObsFlagGuard() { set_enabled(saved); }
};

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TimerStat, AccumulatesMinMaxMean) {
  TimerStat t;
  EXPECT_EQ(t.min_ns(), 0u);  // empty: min reports 0, not the sentinel
  EXPECT_DOUBLE_EQ(t.mean_seconds(), 0.0);
  t.record_ns(100);
  t.record_ns(300);
  t.record_ns(200);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.total_ns(), 600u);
  EXPECT_EQ(t.min_ns(), 100u);
  EXPECT_EQ(t.max_ns(), 300u);
  EXPECT_DOUBLE_EQ(t.mean_seconds(), 200e-9);
  t.reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.min_ns(), 0u);
}

TEST(RegistryTest, GetOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("a");
  a.inc(7);
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 7u);
  // reset() zeroes but does not invalidate: the cached reference still
  // points at the live entry.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(RegistryTest, FindDoesNotCreate) {
  Registry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_timer("nope"), nullptr);
  EXPECT_TRUE(reg.snapshot().counters.empty());
  reg.counter("yes").inc();
  ASSERT_NE(reg.find_counter("yes"), nullptr);
  EXPECT_EQ(reg.find_counter("yes")->value(), 1u);
}

TEST(RegistryTest, SnapshotsAreSortedByName) {
  Registry reg;
  reg.counter("b").inc(2);
  reg.counter("a").inc(1);
  const auto snap = reg.snapshot().counters;
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "b");
}

TEST(RegistryTest, HistogramBinningFixedOnFirstUse) {
  Registry reg;
  util::Histogram& h = reg.histogram("h", 0.0, 10.0, 5);
  h.add(1.0);
  // A later call with a different range returns the same histogram.
  util::Histogram& again = reg.histogram("h", -99.0, 99.0, 50);
  EXPECT_EQ(&again, &h);
  EXPECT_DOUBLE_EQ(again.lo(), 0.0);
  EXPECT_DOUBLE_EQ(again.hi(), 10.0);
  reg.reset();
  EXPECT_EQ(h.total(), 0u);
}

TEST(RegistryTest, HistogramRangeMismatchIsCountedNotSilent) {
  Registry reg;
  reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(reg.find_counter("obs.histogram_range_mismatch"), nullptr)
      << "first use fixes the binning without complaint";
  // Matching re-request: still no mismatch.
  reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(reg.find_counter("obs.histogram_range_mismatch"), nullptr);
  // Conflicting range, hi, and bin count each count once.
  reg.histogram("h", -1.0, 10.0, 5);
  reg.histogram("h", 0.0, 20.0, 5);
  reg.histogram("h", 0.0, 10.0, 7);
  const Counter* mismatches =
      reg.find_counter("obs.histogram_range_mismatch");
  ASSERT_NE(mismatches, nullptr);
  EXPECT_EQ(mismatches->value(), 3u);
}

TEST(ScopedTimerTest, DisabledRecordsNothing) {
  ObsFlagGuard guard;
  set_enabled(false);
  Registry reg;
  TimerStat& stat = reg.timer("region");
  {
    ScopedTimer t(stat);
    EXPECT_DOUBLE_EQ(t.stop(), 0.0);
  }
  EXPECT_EQ(stat.count(), 0u);
}

TEST(ScopedTimerTest, EnabledRecordsAndStopIsIdempotent) {
  ObsFlagGuard guard;
  set_enabled(true);
  Registry reg;
  TimerStat& stat = reg.timer("region");
  {
    ScopedTimer t(stat);
    t.stop();
    t.stop();  // second stop (and the destructor) must not double-count
  }
  EXPECT_EQ(stat.count(), 1u);
}

TEST(ScopedTimerTest, NestedScopesAccumulateInnerWithinOuter) {
  ObsFlagGuard guard;
  set_enabled(true);
  Registry reg;
  TimerStat& outer = reg.timer("outer");
  TimerStat& inner = reg.timer("inner");
  {
    ScopedTimer to(outer);
    for (int i = 0; i < 3; ++i) {
      ScopedTimer ti(inner);
      volatile double sink = 0.0;
      for (int k = 0; k < 1000; ++k) sink = sink + static_cast<double>(k);
    }
  }
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_EQ(inner.count(), 3u);
  // The inner scopes are strictly contained in the outer one.
  EXPECT_LE(inner.total_ns(), outer.total_ns());
}

TEST(ScopedTimerTest, NamedTimerSkipsLookupWhenDisabled) {
  ObsFlagGuard guard;
  set_enabled(false);
  // With profiling off the named constructor must not create the entry.
  { ScopedTimer t("obs_test.never_created"); }
  EXPECT_EQ(registry().find_timer("obs_test.never_created"), nullptr);
  set_enabled(true);
  { ScopedTimer t("obs_test.created"); }
  const TimerStat* stat = registry().find_timer("obs_test.created");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count(), 1u);
}

}  // namespace
}  // namespace sks::obs
