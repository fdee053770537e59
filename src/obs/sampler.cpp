#include "obs/sampler.h"

#include <chrono>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace con::obs {

Sampler::Sampler(Options opts) : opts_(std::move(opts)) {
  if (opts_.interval_ms < 1) opts_.interval_ms = 1;
  file_ = std::fopen(opts_.path.c_str(), "wb");
  if (file_ == nullptr) {
    std::fprintf(stderr, "WARNING: sampler: cannot open %s; telemetry off\n",
                 opts_.path.c_str());
    return;
  }
  thread_ = std::thread([this] { run(); });
}

Sampler::~Sampler() {
  // An owner that forgets finish() still gets a final record (with no
  // extra counters), so the JSONL is always well terminated.
  finish({});
}

std::uint64_t Sampler::samples_written() const { return seq_; }

void Sampler::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(opts_.interval_ms),
                     [this] { return stop_; })) {
      break;
    }
    // The tick holds mu_ only as a stop-flag guard; metric reads take the
    // registry's own lock and file writes are exclusive to this thread
    // until finish() joins it.
    emit_periodic();
  }
}

void Sampler::write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

void Sampler::emit_periodic() {
  const MetricsSnapshot snap = snapshot_metrics();
  Json rec = Json::object();
  rec.set("seq", static_cast<std::int64_t>(seq_));
  rec.set("elapsed_s", elapsed_seconds());
  rec.set("phase", current_phase());
  Json delta = Json::object();
  for (const auto& [name, value] : snap.counters) {
    const auto it = prev_.find(name);
    const std::uint64_t before = it == prev_.end() ? 0 : it->second;
    if (value != before) {
      delta.set(name, value - before);
      prev_[name] = value;
    }
  }
  rec.set("counters_delta", std::move(delta));
  write_line(rec.dump());
  ++seq_;
}

void Sampler::finish(
    const std::vector<std::pair<std::string, std::uint64_t>>&
        extra_counters) {
  if (file_ == nullptr || finished_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  finished_ = true;

  // The final record: the full metrics object (its counters are identical
  // bytes to the run manifest's metrics.counters for the same snapshot +
  // extras) and the trace drop count.
  Json rec = Json::object();
  rec.set("seq", static_cast<std::int64_t>(seq_));
  rec.set("final", true);
  rec.set("elapsed_s", elapsed_seconds());
  rec.set("phase", current_phase());
  rec.set("metrics", metrics_json(snapshot_metrics(), extra_counters));
  rec.set("trace_dropped", trace_dropped_count());
  write_line(rec.dump());
  ++seq_;
  std::fclose(file_);
  file_ = nullptr;
}

}  // namespace con::obs
