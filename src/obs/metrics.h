// Process-wide named counters and histograms.
//
// Call sites cache a reference once and then pay relaxed atomic RMWs per
// update:
//
//   static obs::Counter& c = obs::counter("gemm.dispatch.blocked");
//   c.add(1);
//
// Counters are monotonic u64 totals; histograms bucket u64 observations
// (nanosecond timings, active-set sizes) and keep their exact sum. Registry
// entries are created on first use and never removed, so cached references
// stay valid for the process lifetime; reset_metrics() zeroes values in
// place for before/after measurements.
//
// Determinism: counters incremented per unit of work (per GEMM call, per
// attack iteration, per cache miss) total the same for any --threads value,
// because the work decomposition never depends on the thread count (DESIGN
// §5). Histograms of integer-valued observations share the property — the
// bucket vector and the sum are exact integer sums in any order; timing
// histograms obviously do not, and the manifest comparison tooling only
// compares counters.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace con::obs {

// conlint:lockfree(monotonic tally on one atomic slot; readers tolerate stale totals and nothing synchronises-with a bump)
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Fixed-bucket log2-spaced histogram with an exact sum: the one metric kind
// for hot-path latencies and sizes.
//
// Bucket i counts observations v with bucket_index(v) == i: bucket 0 holds
// v == 0, bucket i (1 <= i < kHistogramBuckets-1) holds
// 2^(i-1) <= v < 2^i, and the last bucket absorbs everything larger.
// record() is lock-free and allocation-free — two relaxed fetch_adds on
// fixed slots — so it is safe inside GEMM panels and attack inner loops.
// Because bucket counts and the sum are exact integer sums, both are
// byte-identical for any --threads value on integer-valued observations
// (same multiset of observations, any order), extending the counter
// determinism contract to shape, not just totals.
// conlint:lockfree(fixed atomic bucket and sum slots; exact integer sums in any interleaving, readers tolerate in-flight records)
class Histogram {
 public:
  static constexpr std::size_t kHistogramBuckets = 64;

  void record(std::uint64_t v) {
    counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  // Double observations are rounded to the nearest integer (negative
  // values clamp to bucket 0), so integer-valued doubles keep the
  // determinism contract.
  void record(double v) {
    record(v <= 0.0 ? std::uint64_t{0} : static_cast<std::uint64_t>(v + 0.5));
  }

  static std::size_t bucket_index(std::uint64_t v) {
    if (v == 0) return 0;
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kHistogramBuckets - 1 ? w : kHistogramBuckets - 1;
  }
  // Largest value a bucket can hold (inclusive); the deterministic
  // percentile readout reports this bound.
  static std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  std::uint64_t count() const;
  // Exact sum of every recorded value (total nanoseconds for a timer).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> buckets() const;  // all kHistogramBuckets slots

  // Upper bucket bound covering the p-quantile (p in (0, 1]); 0 when
  // empty. Deterministic: depends only on the bucket vector.
  std::uint64_t percentile(double p) const {
    return percentile_of(buckets(), p);
  }
  static std::uint64_t percentile_of(const std::vector<std::uint64_t>& buckets,
                                     double p);

  void reset();

 private:
  std::atomic<std::uint64_t> counts_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

// Scoped wall-time observation: on destruction records whole nanoseconds
// into the histogram (timings are not thread-count deterministic, and
// comparisons skip them).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  std::uint64_t start_ns_;
};

struct MetricsSnapshot {
  struct HistValue {
    std::string name;
    // All kHistogramBuckets slots, in bucket order.
    std::vector<std::uint64_t> buckets;
    std::uint64_t sum = 0;
  };
  // Sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistValue> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Stable references, created on first use. Safe from any thread.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  // Zero every registered value in place (entries and cached references
  // survive).
  void reset();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

// Convenience forwarders.
inline Counter& counter(const std::string& name) {
  return MetricsRegistry::instance().counter(name);
}
inline Histogram& histogram(const std::string& name) {
  return MetricsRegistry::instance().histogram(name);
}
inline MetricsSnapshot snapshot_metrics() {
  return MetricsRegistry::instance().snapshot();
}
inline void reset_metrics() { MetricsRegistry::instance().reset(); }

}  // namespace con::obs
