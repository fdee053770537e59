// Validates the JSON artifacts the observability subsystem emits, so the
// trace-smoke / bench-smoke ctest hooks catch exporter rot:
//
//   obs_validate [--trace trace.json] [--manifest run_manifest.json]
//
// A trace must parse as strict JSON, contain a non-empty traceEvents array
// with at least one complete ("X") span carrying the Chrome trace_event
// envelope, and name every thread via "M" metadata. A manifest must carry
// the keys downstream comparison tooling relies on: name, git, wall time,
// threads, a config object and a non-empty metrics.counters object —
// including the artifact-store section (store.hit / store.miss /
// store.evict / store.gc_bytes), which bench::finish_run guarantees in
// every manifest. With --expect-store-hits-only the manifest must describe
// a fully warm run: store.miss == 0 and store.hit > 0 (the assertion the
// store_smoke ctest makes about its second pass). With
// --expect-integer-path the manifest must prove the run actually exercised
// the deployed int8 backend: at least one gemm.dispatch.int8.* counter
// positive plus the requantize.quant_i8 input-quantisation counter and at
// least one requantize.{col,row}_bias output-stage counter — an integer
// "measurement" that silently fell back to the fake-quant float path
// leaves all of these at zero and must fail loudly.
//
// A manifest whose trace.dropped_total is positive prints a WARNING (the
// ring was sized too small for the run) but still validates.
// Exit 0 when everything named on the command line validates; 1 otherwise.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "util/cli.h"

namespace {

using con::obs::Json;

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

void validate_trace(const std::string& path) {
  const Json doc = con::obs::parse_json(read_file(path));
  const Json* events = doc.find("traceEvents");
  require(events != nullptr && events->kind() == Json::Kind::kArray,
          "missing traceEvents array");
  std::size_t spans = 0, metadata = 0;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    require(e.find("name") != nullptr && ph != nullptr &&
                e.find("pid") != nullptr && e.find("tid") != nullptr,
            "event missing name/ph/pid/tid");
    if (ph->as_string() == "X") {
      require(e.find("ts") != nullptr && e.find("dur") != nullptr,
              "X event missing ts/dur");
      require(e.find("dur")->as_double() >= 0.0, "negative span duration");
      ++spans;
    } else if (ph->as_string() == "M") {
      ++metadata;
    }
  }
  require(spans > 0, "no span (\"X\") events — tracing recorded nothing");
  require(metadata > 0, "no thread_name (\"M\") metadata events");
  std::printf("obs_validate: %s OK (%zu spans, %zu thread names)\n",
              path.c_str(), spans, metadata);
}

// Sum of a counter family, tolerating absent members (a scalar-only run
// has no avx2 dispatch counts, an AVX2 run no scalar ones).
std::int64_t counter_or_zero(const Json& counters, const char* key) {
  const Json* c = counters.find(key);
  return c == nullptr ? 0 : c->as_int();
}

void validate_integer_path(const Json& counters) {
  const std::int64_t dispatched =
      counter_or_zero(counters, "gemm.dispatch.int8.scalar") +
      counter_or_zero(counters, "gemm.dispatch.int8.avx2");
  require(dispatched > 0,
          "no gemm.dispatch.int8.* counts — the run never entered an int8 "
          "GEMM");
  require(counter_or_zero(counters, "requantize.quant_i8") > 0,
          "requantize.quant_i8 == 0 — inputs were never quantised to codes");
  require(counter_or_zero(counters, "requantize.col_bias") +
                  counter_or_zero(counters, "requantize.row_bias") >
              0,
          "no requantize.{col,row}_bias counts — int8 accumulators were "
          "never requantised");
}

void validate_manifest(const std::string& path, bool expect_store_hits_only,
                       bool expect_integer_path) {
  const Json doc = con::obs::parse_json(read_file(path));
  for (const char* key : {"name", "timestamp_unix", "git", "wall_time_s",
                          "threads", "config", "metrics"}) {
    require(doc.find(key) != nullptr, std::string("missing key ") + key);
  }
  require(!doc.find("name")->as_string().empty(), "empty run name");
  require(doc.find("threads")->as_int() >= 1, "threads < 1");
  require(doc.find("config")->kind() == Json::Kind::kObject,
          "config is not an object");
  // Every manifest must say which micro-kernel ISA served it: the bits do
  // not depend on it, but a perf number without its kernel ISA is not
  // comparable.
  const Json* kernel_isa = doc.find("config")->find("kernel_isa");
  require(kernel_isa != nullptr, "missing config.kernel_isa");
  {
    const std::string isa = kernel_isa->as_string();
    require(isa == "scalar" || isa == "avx2",
            "config.kernel_isa is not scalar|avx2");
  }
  const Json* counters = doc.find("metrics")->find("counters");
  require(counters != nullptr && counters->kind() == Json::Kind::kObject,
          "missing metrics.counters object");
  require(!counters->members().empty(), "metrics.counters is empty");
  for (const char* key :
       {"store.hit", "store.miss", "store.evict", "store.gc_bytes"}) {
    require(counters->find(key) != nullptr,
            std::string("missing artifact-store counter ") + key);
  }
  if (expect_store_hits_only) {
    require(counters->find("store.miss")->as_int() == 0,
            "store.miss != 0 — a warm run rebuilt artifacts");
    require(counters->find("store.hit")->as_int() > 0,
            "store.hit == 0 — a warm run never touched the store");
  }
  if (expect_integer_path) validate_integer_path(*counters);
  require(doc.find("metrics")->find("histograms") != nullptr,
          "missing metrics.histograms");
  // Trace-ring drop accounting (always present): drops do not fail the
  // manifest — the spans that did land are still valid — but a truncated
  // trace should never pass silently.
  const Json* trace = doc.find("trace");
  require(trace != nullptr && trace->kind() == Json::Kind::kObject,
          "missing trace drop-accounting section");
  const Json* dropped = trace->find("dropped_total");
  require(dropped != nullptr, "missing trace.dropped_total");
  if (dropped->as_int() > 0) {
    std::fprintf(stderr,
                 "obs_validate: WARNING: %s: trace.dropped_total = %lld — "
                 "the per-thread trace ring overflowed; spans are missing "
                 "from the trace (raise the ring size or trace less)\n",
                 path.c_str(), static_cast<long long>(dropped->as_int()));
  }
  std::printf("obs_validate: %s OK (run \"%s\", %zu counters)\n", path.c_str(),
              doc.find("name")->as_string().c_str(),
              counters->members().size());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    con::util::CliFlags flags(argc, argv);
    const std::string trace = flags.get_string("trace", "");
    const std::string manifest = flags.get_string("manifest", "");
    const bool hits_only = flags.get_bool("expect-store-hits-only", false);
    const bool integer_path = flags.get_bool("expect-integer-path", false);
    flags.check_unused();
    if (trace.empty() && manifest.empty()) {
      throw std::runtime_error(
          "usage: obs_validate [--trace f.json] [--manifest f.json] "
          "[--expect-store-hits-only] [--expect-integer-path]");
    }
    if (!trace.empty()) validate_trace(trace);
    if (!manifest.empty()) validate_manifest(manifest, hits_only, integer_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_validate: FAIL: %s\n", e.what());
    return 1;
  }
  return 0;
}
