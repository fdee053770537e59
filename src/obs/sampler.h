// Periodic telemetry sampler: a background thread that snapshots the
// metrics registry every `interval_ms` into an append-only JSONL
// time-series, one record per line, flushed as written so `tail -f` (and
// the telemetry_smoke ctest) observe a run in flight.
//
// Record shapes:
//
//   periodic  {"seq":N,"elapsed_s":T,"phase":"...","counters_delta":{...}}
//   final     {"seq":N,"final":true,"elapsed_s":T,"phase":"...",
//              "metrics":{"counters":{...},"histograms":{...}},
//              "trace_dropped":D}
//
// Sequence numbers are monotonic from 0 with no gaps. Periodic records
// carry delta-since-last-sample counter encoding (only counters that moved
// appear), so a quiet long run costs bytes proportional to activity, not
// registry size.
//
// Quiesce contract: the owner stops all parallel work, then calls
// finish(extra_counters) exactly once — it joins the sampling thread and
// appends the final record from the calling thread. Because the final
// record's "metrics" object is built by the same metrics_json() the run
// manifest uses, over a snapshot taken after quiesce, its counters are
// byte-identical to the manifest's metrics.counters section for the same
// run (the obs_validate --telemetry --manifest cross-check pins this).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace con::obs {

class Sampler {
 public:
  struct Options {
    std::string path;
    int interval_ms = 200;
  };

  // Opens `path` for append-truncate and starts the sampling thread. On
  // I/O failure ok() is false, a warning goes to stderr, and every other
  // member is a no-op — telemetry must never take a run down.
  explicit Sampler(Options opts);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return opts_.path; }

  // Records written so far (periodic + final).
  std::uint64_t samples_written() const;

  // Joins the sampling thread and appends the final full-snapshot record.
  // `extra_counters` must be the same list the run manifest appends
  // (tensor.buffer_allocations, ...), in the same order, for the
  // byte-identity contract. Idempotent; also closes the file.
  void finish(const std::vector<std::pair<std::string, std::uint64_t>>&
                  extra_counters);

 private:
  void run();
  // Appends one periodic record. Caller holds no lock; the file is only
  // touched from the sampling thread until finish() joins it.
  void emit_periodic();
  void write_line(const std::string& line);

  Options opts_;
  std::FILE* file_ = nullptr;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool finished_ = false;
  std::uint64_t seq_ = 0;
  // Previous counter totals, for delta encoding.
  std::map<std::string, std::uint64_t> prev_;
};

}  // namespace con::obs
