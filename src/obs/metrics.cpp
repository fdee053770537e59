#include "obs/metrics.h"

#include <map>
#include <memory>
#include <mutex>

#include "obs/obs.h"

namespace con::obs {

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out(kHistogramBuckets);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::percentile_of(
    const std::vector<std::uint64_t>& buckets, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the requested quantile, 1-based; ceil so p=0.5 of two
  // observations lands on the first.
  std::uint64_t rank =
      static_cast<std::uint64_t>(p * static_cast<double>(total) + 0.9999999);
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(buckets.size() - 1);
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Histogram& h) : hist_(h), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() { hist_.record(now_ns() - start_ns_); }

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> hists;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: usable during exit
  return *impl;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.hists[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.histograms.reserve(im.hists.size());
  for (const auto& [name, h] : im.hists) {
    snap.histograms.push_back({name, h->buckets(), h->sum()});
  }
  return snap;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, h] : im.hists) h->reset();
}

}  // namespace con::obs
