// con-stats: query a running bench's --stats-socket endpoint.
//
//   con-stats <socket-path>          pretty JSON snapshot to stdout
//   con-stats --raw <socket-path>    the exact bytes the server sent
//
// Connects to the unix-domain socket a bench opened with
// --stats-socket <path>, reads the single JSON document the server writes
// per connection, validates it (strict parse, and the keys con-stats
// itself documents: pid, run, threads, elapsed_s, phase, metrics) and
// prints it. Exit 0 on a valid snapshot; 1 on connect/read/parse failure,
// so the telemetry_smoke ctest can use it as the mid-flight probe.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "util/cli.h"

namespace {

std::string read_snapshot(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path +
                             " (is the bench running with --stats-socket?)");
  }
  std::string body;
  char buf[1 << 14];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    body.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (n < 0) throw std::runtime_error("read error on " + path);
  if (body.empty()) throw std::runtime_error("server sent an empty snapshot");
  return body;
}

void validate_snapshot(const con::obs::Json& doc) {
  for (const char* key :
       {"pid", "run", "threads", "elapsed_s", "phase", "metrics"}) {
    if (doc.find(key) == nullptr) {
      throw std::runtime_error(std::string("snapshot missing key ") + key);
    }
  }
  for (const char* key : {"counters", "histograms"}) {
    if (doc.find("metrics")->find(key) == nullptr) {
      throw std::runtime_error(std::string("snapshot missing metrics.") + key);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    con::util::CliFlags flags(argc, argv);
    const bool raw = flags.get_bool("raw", false);
    flags.check_unused();
    if (flags.positional().size() != 1) {
      throw std::runtime_error("usage: con-stats [--raw] <socket-path>");
    }
    const std::string body = read_snapshot(flags.positional()[0]);
    const con::obs::Json doc = con::obs::parse_json(body);
    validate_snapshot(doc);
    if (raw) {
      std::fwrite(body.data(), 1, body.size(), stdout);
    } else {
      std::printf("%s\n", doc.dump(/*indent=*/2).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "con-stats: %s\n", e.what());
    return 1;
  }
  return 0;
}
