// Live introspection over a unix-domain socket: the "what are you doing
// right now" endpoint for long sweeps, and the building block the
// transfer-study daemon (ROADMAP item 2) will reuse for its control plane.
//
// Protocol (deliberately trivial — `con-stats` or `nc -U` both work): a
// client connects, the server writes one pretty-printed JSON document and
// closes. The document carries process info (pid, run name, thread count,
// elapsed seconds, active phase, trace event/drop counts) plus the same
// metrics object the run manifest ends with (counters / histograms via the
// shared manifest.h metrics_json), serialized from a live snapshot at
// accept time.
//
// The accept loop runs on its own background thread, polling with a short
// timeout so stop() takes effect promptly; serving never touches the hot
// paths beyond one registry snapshot per request. Binding failures warn
// and disable the server (ok() == false) instead of failing the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace con::obs {

// conlint:lockfree(stop flag and request tally are independent single slots; the poll loop re-checks within 100ms and the join in stop() is the real synchronisation point)
class StatsServer {
 public:
  struct Info {
    std::string run_name;
    std::size_t threads = 1;
  };

  // Binds and listens on `socket_path` (an existing socket file is
  // replaced) and starts the accept thread.
  StatsServer(std::string socket_path, Info info);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  // Stops the accept thread, closes and unlinks the socket. Idempotent.
  void stop();

  // The snapshot document a client receives (exposed for tests).
  static std::string snapshot_response(const Info& info);

 private:
  void serve();

  std::string path_;
  Info info_;
  int fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace con::obs
