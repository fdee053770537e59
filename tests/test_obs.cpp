// Tests for the observability subsystem: spans, metrics, Chrome-trace
// export, JSON round-trips and run manifests.
//
// Built as its OWN test binary (con_obs_tests): it overrides global
// operator new/delete to count heap allocations, which must not leak into
// the main test suite. The counting override forwards to malloc/free and
// is exercised by the allocation-guard tests below — the contract is that
// span recording and counter updates never allocate once a thread's ring
// exists, and cost only a relaxed load + branch when tracing is off.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/threadpool.h"

// GCC can't see that the operator new below forwards to malloc, so it
// flags the free() in operator delete as mismatched; the pairing is fine.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// conlint:lockfree(monotonic allocation tally; assertions compare totals across quiesced phases)
void count_global_alloc() {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}

// conlint:lockfree(reads the monotonic allocation tally; no ordering against the counted allocations is needed)
std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_global_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_global_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using con::obs::Json;

// Every X event in the trace for the calling thread, in ring order.
std::vector<const Json*> my_span_events(const Json& doc) {
  const int tid = con::obs::this_thread_id();
  std::vector<const Json*> out;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() == "X" &&
        e.find("tid")->as_int() == tid) {
      out.push_back(&e);
    }
  }
  return out;
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    con::obs::set_tracing(true);
    con::obs::clear_trace();
  }
  void TearDown() override { con::obs::set_tracing(false); }
};

TEST_F(ObsTraceTest, NestedSpansRecordDepthAndContainment) {
  {
    con::obs::Span outer("outer");
    {
      con::obs::Span mid(std::string("model"), "forward");
      con::obs::Span inner("inner");
    }
  }
  const Json doc = con::obs::parse_json(con::obs::chrome_trace_json());
  const auto spans = my_span_events(doc);
  ASSERT_EQ(spans.size(), 3u);
  // Events are recorded at span END, so innermost comes first.
  EXPECT_EQ(spans[0]->find("name")->as_string(), "inner");
  EXPECT_EQ(spans[1]->find("name")->as_string(), "model.forward");
  EXPECT_EQ(spans[2]->find("name")->as_string(), "outer");
  EXPECT_EQ(spans[0]->find("args")->find("depth")->as_int(), 2);
  EXPECT_EQ(spans[1]->find("args")->find("depth")->as_int(), 1);
  EXPECT_EQ(spans[2]->find("args")->find("depth")->as_int(), 0);
  // Interval containment: child [ts, ts+dur] inside parent [ts, ts+dur].
  for (int child = 0; child < 2; ++child) {
    const double cts = spans[child]->find("ts")->as_double();
    const double cend = cts + spans[child]->find("dur")->as_double();
    const double pts = spans[child + 1]->find("ts")->as_double();
    const double pend = pts + spans[child + 1]->find("dur")->as_double();
    EXPECT_GE(cts, pts);
    EXPECT_LE(cend, pend);
  }
}

TEST_F(ObsTraceTest, TraceIsWellFormedAndCarriesThreadNames) {
  con::obs::set_thread_name("obs-test-main");
  { con::obs::Span s("solo"); }
  const std::string text = con::obs::chrome_trace_json();
  const Json doc = con::obs::parse_json(text);  // throws on malformed JSON
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool named = false;
  for (const Json& e : events->items()) {
    // Every event, X or M, carries the full Chrome trace_event envelope.
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (e.find("ph")->as_string() == "M" &&
        e.find("tid")->as_int() == con::obs::this_thread_id()) {
      EXPECT_EQ(e.find("args")->find("name")->as_string(), "obs-test-main");
      named = true;
    }
  }
  EXPECT_TRUE(named);
}

TEST_F(ObsTraceTest, LongSpanNamesAreTruncatedNotCorrupted) {
  const std::string longname(200, 'x');
  { con::obs::Span s(longname.c_str()); }
  const Json doc = con::obs::parse_json(con::obs::chrome_trace_json());
  const auto spans = my_span_events(doc);
  ASSERT_EQ(spans.size(), 1u);
  const std::string& recorded = spans[0]->find("name")->as_string();
  EXPECT_EQ(recorded.size(), con::obs::kSpanNameCap - 1);
  EXPECT_EQ(recorded, longname.substr(0, con::obs::kSpanNameCap - 1));
}

TEST_F(ObsTraceTest, FullRingDropsInsteadOfGrowing) {
  const std::size_t before = con::obs::trace_event_count();
  for (std::size_t i = 0; i < con::obs::kRingCapacity + 5; ++i) {
    con::obs::Span s("spin");
  }
  EXPECT_EQ(con::obs::trace_event_count() - before, con::obs::kRingCapacity);
  EXPECT_GE(con::obs::trace_dropped_count(), 5u);
  con::obs::clear_trace();
  EXPECT_EQ(con::obs::trace_event_count(), 0u);
  EXPECT_EQ(con::obs::trace_dropped_count(), 0u);
}

TEST_F(ObsTraceTest, DisabledSpansRecordNothing) {
  con::obs::set_tracing(false);
  { con::obs::Span s("ghost"); }
  EXPECT_EQ(con::obs::trace_event_count(), 0u);
}

// ---- allocation guards ------------------------------------------------------

TEST(ObsOverhead, SpansAllocateNothingWhenTracingOff) {
  con::obs::set_tracing(false);
  con::obs::this_thread_id();  // ensure the thread's ring exists
  const std::string base = "layer-name-beyond-sso-length-for-realism";
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    con::obs::Span a("gemm.nn");
    con::obs::Span b(base, "forward");
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

TEST(ObsOverhead, SpansAllocateNothingWhenTracingOn) {
  con::obs::set_tracing(true);
  con::obs::clear_trace();
  { con::obs::Span warm("warm"); }  // ring + first-touch done
  const std::string base = "layer-name-beyond-sso-length-for-realism";
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    con::obs::Span a("gemm.nn");
    con::obs::Span b(base, "forward");
  }
  EXPECT_EQ(allocation_count() - before, 0u);
  con::obs::set_tracing(false);
  con::obs::clear_trace();
}

TEST(ObsOverhead, CounterAndDistributionUpdatesAllocateNothing) {
  con::obs::Counter& c = con::obs::counter("obs_test.alloc_guard");
  con::obs::Histogram& h = con::obs::histogram("obs_test.alloc_guard_hist");
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    c.add(1);
    h.record(static_cast<std::uint64_t>(i));
    con::obs::ScopedTimer t(h);
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

// ---- metrics ----------------------------------------------------------------

TEST(ObsMetrics, CountersAccumulateAndReset) {
  con::obs::reset_metrics();
  con::obs::Counter& c = con::obs::counter("obs_test.basic");
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&con::obs::counter("obs_test.basic"), &c);
  con::obs::reset_metrics();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, ScopedTimerRecordsOneObservation) {
  con::obs::reset_metrics();
  con::obs::Histogram& h = con::obs::histogram("obs_test.timer_ns");
  { con::obs::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  // The sum is the one observation, so it lies in the observed bucket.
  const std::size_t i = con::obs::Histogram::bucket_index(h.sum());
  EXPECT_EQ(h.bucket(i), 1u);
}

TEST(ObsMetrics, SnapshotIsSortedByName) {
  con::obs::reset_metrics();
  con::obs::counter("obs_test.zzz").add(1);
  con::obs::counter("obs_test.aaa").add(2);
  const con::obs::MetricsSnapshot snap = con::obs::snapshot_metrics();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

// Counters incremented per unit of work must total the same no matter how
// the pool interleaves the work.
TEST(ObsMetrics, ParallelForCountsAreExact) {
  con::obs::reset_metrics();
  con::obs::Counter& c = con::obs::counter("obs_test.parallel");
  con::obs::Histogram& h = con::obs::histogram("obs_test.parallel_hist");
  const std::size_t n = 10000;
  con::util::parallel_for(0, n, [&](std::size_t i) {
    c.add(1);
    h.record(static_cast<std::uint64_t>(i % 7));
  });
  EXPECT_EQ(c.value(), n);
  EXPECT_EQ(h.count(), n);
  std::uint64_t expect_sum = 0;
  for (std::size_t i = 0; i < n; ++i) expect_sum += i % 7;
  EXPECT_EQ(h.sum(), expect_sum);
  EXPECT_EQ(h.bucket(0), (n + 6) / 7);  // every i % 7 == 0
}

// ---- JSON -------------------------------------------------------------------

TEST(ObsJson, RoundTripsScalarsExactly) {
  Json doc = Json::object();
  doc.set("i", std::int64_t{-9007199254740993});  // not double-representable
  doc.set("d", 0.1);
  doc.set("b", true);
  doc.set("n", nullptr);
  doc.set("s", "quote \" backslash \\ newline \n tab \t");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc.set("a", std::move(arr));
  const Json back = con::obs::parse_json(doc.dump());
  EXPECT_EQ(back.find("i")->as_int(), -9007199254740993LL);
  EXPECT_EQ(back.find("d")->as_double(), 0.1);
  EXPECT_TRUE(back.find("b")->as_bool());
  EXPECT_TRUE(back.find("n")->is_null());
  EXPECT_EQ(back.find("s")->as_string(),
            "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(back.find("a")->items()[0].as_int(), 1);
  EXPECT_EQ(back.find("a")->items()[1].as_string(), "two");
}

TEST(ObsJson, PrettyPrintParsesBack) {
  Json doc = Json::object();
  Json inner = Json::object();
  inner.set("k", 1);
  doc.set("outer", std::move(inner));
  const Json back = con::obs::parse_json(doc.dump(2));
  EXPECT_EQ(back.find("outer")->find("k")->as_int(), 1);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(con::obs::parse_json("{"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json(""), std::runtime_error);
  EXPECT_THROW(con::obs::parse_json("nul"), std::runtime_error);
}

// ---- manifests --------------------------------------------------------------

TEST(ObsManifest, WritesAndParsesBack) {
  con::obs::reset_metrics();
  con::obs::counter("obs_test.manifest_counter").add(42);
  con::obs::Histogram& h = con::obs::histogram("obs_test.manifest_hist");
  h.record(std::uint64_t{3});
  h.record(std::uint64_t{6});

  con::obs::RunManifest m;
  m.name = "obs_test_run";
  m.wall_time_s = 1.25;
  m.threads = 4;
  m.config.emplace_back("network", Json("lenet5-small"));
  m.config.emplace_back("seed", Json(42));
  m.extra_counters.emplace_back("tensor.buffer_allocations",
                                std::uint64_t{12345});

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  const std::string path = con::obs::write_manifest(m, dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("obs_test_run_manifest.json"), std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  const Json doc = con::obs::parse_json(text);
  EXPECT_EQ(doc.find("name")->as_string(), "obs_test_run");
  EXPECT_EQ(doc.find("wall_time_s")->as_double(), 1.25);
  EXPECT_EQ(doc.find("threads")->as_int(), 4);
  EXPECT_EQ(doc.find("config")->find("network")->as_string(), "lenet5-small");
  EXPECT_EQ(doc.find("config")->find("seed")->as_int(), 42);
  const Json* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("obs_test.manifest_counter")->as_int(), 42);
  EXPECT_EQ(counters->find("tensor.buffer_allocations")->as_int(), 12345);
  EXPECT_EQ(doc.find("metrics")->members().size(), 2u);  // one metric kind
  const Json* hists = doc.find("metrics")->find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* entry = hists->find("obs_test.manifest_hist");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_int(), 2);
  EXPECT_EQ(entry->find("sum")->as_int(), 9);
  EXPECT_EQ(entry->find("mean")->as_double(), 4.5);
}

// ---- histograms -------------------------------------------------------------

TEST(ObsHistogram, BucketIndexAndBoundsPartitionTheRange) {
  using con::obs::Histogram;
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  // The last bucket absorbs everything past 2^62.
  EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 62),
            Histogram::kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kHistogramBuckets - 1),
            ~std::uint64_t{0});
  // Every value lands in the bucket whose bounds contain it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65535ull,
                          (1ull << 40) + 17ull}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(i));
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(i - 1));
    }
  }
}

TEST(ObsHistogram, PercentilesReadInclusiveBucketUpperBounds) {
  con::obs::reset_metrics();
  con::obs::Histogram& h = con::obs::histogram("obs_test.hist_pct");
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty reads as 0
  h.record(std::uint64_t{0});
  h.record(std::uint64_t{1});
  h.record(std::uint64_t{5});
  h.record(std::uint64_t{5});  // bucket 3: [4, 7]
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.percentile(0.25), 0u);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.75), 7u);
  EXPECT_EQ(h.percentile(0.99), 7u);
  EXPECT_EQ(h.percentile(1.0), 7u);
  // Double observations round to the nearest integer; negatives clamp to 0.
  h.record(2.6);
  EXPECT_EQ(h.bucket(2), 1u);
  h.record(-3.0);
  EXPECT_EQ(h.bucket(0), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsHistogram, RecordIsAllocationAndLockFree) {
  con::obs::Histogram& h = con::obs::histogram("obs_test.hist_alloc");
  // The per-bucket counters must be lock-free atomics for the hot-path
  // claim to hold at all.
  std::atomic<std::uint64_t> probe{0};
  EXPECT_TRUE(probe.is_lock_free());
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1000; ++i) {
    h.record(static_cast<std::uint64_t>(i));
    h.record(static_cast<double>(i) + 0.25);
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

// The tentpole determinism claim: for a fixed multiset of integer
// observations, the bucket vector is identical however the observations are
// partitioned across threads. Raw std::threads (not the global pool — its
// size is process-wide and already pinned by other suites) at 1/4/8.
TEST(ObsHistogram, BucketsAreIdenticalForAnyThreadCount) {
  con::obs::reset_metrics();
  const std::size_t n = 20000;
  const auto observation = [](std::size_t i) {
    return static_cast<std::uint64_t>((i * i + 3 * i) % 100003);
  };
  std::vector<std::vector<std::uint64_t>> results;
  std::vector<std::uint64_t> sums;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    con::obs::Histogram& h = con::obs::histogram(
        "obs_test.hist_threads_" + std::to_string(threads));
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = t; i < n; i += threads) h.record(observation(i));
      });
    }
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(h.count(), n);
    results.push_back(h.buckets());
    sums.push_back(h.sum());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
  std::uint64_t expect_sum = 0;
  for (std::size_t i = 0; i < n; ++i) expect_sum += observation(i);
  EXPECT_EQ(sums[0], expect_sum);
  EXPECT_EQ(sums[1], sums[0]);
  EXPECT_EQ(sums[2], sums[0]);
}

TEST(ObsManifest, HistogramsSectionListsNonZeroBuckets) {
  con::obs::reset_metrics();
  con::obs::Histogram& h = con::obs::histogram("obs_test.hist_manifest");
  h.record(std::uint64_t{0});
  h.record(std::uint64_t{1});
  h.record(std::uint64_t{1});
  h.record(std::uint64_t{8});  // bucket 4
  const Json metrics =
      con::obs::metrics_json(con::obs::snapshot_metrics(), {});
  const Json* entry =
      metrics.find("histograms")->find("obs_test.hist_manifest");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("count")->as_int(), 4);
  EXPECT_EQ(entry->find("sum")->as_int(), 10);
  EXPECT_EQ(entry->find("mean")->as_double(), 2.5);
  EXPECT_EQ(entry->find("p50")->as_int(), 1);
  EXPECT_EQ(entry->find("p99")->as_int(), 15);  // bucket 4 upper bound
  const auto& buckets = entry->find("buckets")->items();
  ASSERT_EQ(buckets.size(), 3u);  // only the non-zero buckets appear
  EXPECT_EQ(buckets[0].items()[0].as_int(), 0);
  EXPECT_EQ(buckets[0].items()[1].as_int(), 1);
  EXPECT_EQ(buckets[1].items()[0].as_int(), 1);
  EXPECT_EQ(buckets[1].items()[1].as_int(), 2);
  EXPECT_EQ(buckets[2].items()[0].as_int(), 4);
  EXPECT_EQ(buckets[2].items()[1].as_int(), 1);
}

TEST(ObsManifest, TraceDropAccountingReachesManifestAndApi) {
  con::obs::set_tracing(true);
  con::obs::clear_trace();
  for (std::size_t i = 0; i < con::obs::kRingCapacity + 7; ++i) {
    con::obs::Span s("drop-spin");
  }
  // The API view: this thread's ring reports its drops.
  bool found = false;
  for (const con::obs::RingDropCount& rd : con::obs::trace_ring_drops()) {
    if (rd.tid == con::obs::this_thread_id()) {
      EXPECT_GE(rd.dropped, 7u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // The manifest view: trace.dropped_total and the per-thread map.
  con::obs::RunManifest m;
  m.name = "drop_test";
  const Json doc = con::obs::manifest_json(m);
  const Json* trace = doc.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->find("dropped_total")->as_int(), 7);
  EXPECT_FALSE(trace->find("dropped_by_thread")->members().empty());
  con::obs::clear_trace();
  con::obs::set_tracing(false);
}

// ---- logging satellites -----------------------------------------------------

TEST(ObsLogging, LinesCarryElapsedTimeAndThreadId) {
  ::testing::internal::CaptureStderr();
  con::util::log_info("hello %d", 7);
  const std::string out = ::testing::internal::GetCapturedStderr();
  // "[I <elapsed> tNN] hello 7"
  EXPECT_EQ(out.rfind("[I ", 0), 0u);
  EXPECT_NE(out.find(" t"), std::string::npos);
  EXPECT_NE(out.find("] hello 7"), std::string::npos);
}

TEST(ObsLogging, TruncatedLinesAreMarkedWithEllipsis) {
  const std::string big(2000, 'y');
  ::testing::internal::CaptureStderr();
  con::util::log_info("%s", big.c_str());
  const std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("\xE2\x80\xA6"), std::string::npos);
  EXPECT_LT(out.size(), 1200u);  // 1023 payload + prefix, not 2000
}

}  // namespace
