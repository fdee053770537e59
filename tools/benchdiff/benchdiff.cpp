// benchdiff: the bench-history regression gate.
//
//   benchdiff [flags] <base.json> <current.json>
//
// Ingests two google-benchmark JSON exports (`--benchmark_format=json`) or
// two run manifests (bench --manifest output; detected by their "metrics"
// section), joins series by name, and fails when `current` regressed
// against `base`:
//
//   --threshold R        fail when current/base > R for any joined series
//                        (default 1.5; wall-clock benches are noisy, so the
//                        default is deliberately loose)
//   --noise-floor-ns N   skip series whose base AND current times are both
//                        under N ns — sub-floor series are dominated by
//                        timer jitter (default 50000)
//   --relative-to NAME   normalize every series by the series NAME (or the
//                        summed NAME/* family) from the SAME file before
//                        comparing. This cancels machine speed: committed
//                        baselines from one host gate CI runs on another,
//                        and only *relative* slowdowns (one kernel
//                        collapsing while the reference stays put) fail.
//   --require-equal-counters   manifest mode only: any joined counter whose
//                        value differs is a failure, not just a report
//                        (the determinism contract for counter metrics)
//   --store DIR          on a PASSING diff, record `current` in the
//                        artifact store DIR as a "bench-history" derivation
//                        (content-hashed, rooted) so accepted runs form a
//                        queryable history
//   --label NAME         store label/derivation name (default: the stem of
//                        <current.json>)
//
// Exit codes: 0 = no regression, 1 = regression (or counter mismatch under
// --require-equal-counters), 2 = usage/parse error. Missing-from-current
// series are reported but do not fail (benches may be filtered); series
// only in `current` are new and ignored.
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "store/derivation.h"
#include "store/hash.h"
#include "store/store.h"
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

double time_unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  throw std::runtime_error("unknown time_unit '" + unit + "'");
}

// Series values in nanoseconds, keyed by benchmark name. Aggregate rows
// (mean/median/stddev entries from --benchmark_repetitions) are skipped:
// only "iteration" rows are measurements.
std::map<std::string, double> bench_series(const Json& doc) {
  std::map<std::string, double> out;
  const Json* benches = doc.find("benchmarks");
  if (benches == nullptr || benches->kind() != Json::Kind::kArray) {
    throw std::runtime_error("no benchmarks array (not google-benchmark JSON)");
  }
  for (const Json& b : benches->items()) {
    const Json* run_type = b.find("run_type");
    if (run_type != nullptr && run_type->as_string() != "iteration") continue;
    const Json* name = b.find("name");
    const Json* cpu = b.find("cpu_time");
    const Json* unit = b.find("time_unit");
    if (name == nullptr || cpu == nullptr) {
      throw std::runtime_error("benchmark entry missing name/cpu_time");
    }
    const double scale =
        unit == nullptr ? 1.0 : time_unit_to_ns(unit->as_string());
    out[name->as_string()] = cpu->as_double() * scale;
  }
  return out;
}

// Manifest mode: the sums of the timing histograms (names ending in "_ns",
// already in nanoseconds, so --noise-floor-ns means the same thing in both
// modes). Other histograms count things, not time, and are not joined.
std::map<std::string, double> manifest_series(const Json& doc) {
  std::map<std::string, double> out;
  const Json* hists = doc.find("metrics")->find("histograms");
  if (hists == nullptr) return out;
  for (const auto& [name, h] : hists->members()) {
    const Json* sum = h.find("sum");
    if (sum != nullptr && name.ends_with("_ns")) out[name] = sum->as_double();
  }
  return out;
}

std::map<std::string, std::int64_t> manifest_counters(const Json& doc) {
  std::map<std::string, std::int64_t> out;
  const Json* counters = doc.find("metrics")->find("counters");
  if (counters == nullptr) return out;
  for (const auto& [name, v] : counters->members()) out[name] = v.as_int();
  return out;
}

// The normalization reference: the series named `ref` exactly, or the sum
// of its `ref/...` family. Throws (naming the flag) when absent — a typo'd
// reference must not silently gate nothing.
double reference_value(const std::map<std::string, double>& series,
                       const std::string& ref) {
  double total = 0.0;
  bool found = false;
  for (const auto& [name, v] : series) {
    if (name == ref || name.rfind(ref + "/", 0) == 0) {
      total += v;
      found = true;
    }
  }
  if (!found || total <= 0.0) {
    throw std::runtime_error("--relative-to: no series named '" + ref +
                             "' (or '" + ref + "/*') with positive time");
  }
  return total;
}

struct DiffStats {
  int compared = 0;
  int regressions = 0;
  int skipped_noise = 0;
  int missing = 0;
};

DiffStats diff_series(const std::map<std::string, double>& base,
                      const std::map<std::string, double>& current,
                      double threshold, double noise_floor_ns,
                      const std::string& relative_to) {
  const double base_ref =
      relative_to.empty() ? 1.0 : reference_value(base, relative_to);
  const double cur_ref =
      relative_to.empty() ? 1.0 : reference_value(current, relative_to);
  DiffStats stats;
  for (const auto& [name, base_ns] : base) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::printf("  MISSING   %-42s (not in current)\n", name.c_str());
      ++stats.missing;
      continue;
    }
    const double cur_ns = it->second;
    if (base_ns < noise_floor_ns && cur_ns < noise_floor_ns) {
      ++stats.skipped_noise;
      continue;
    }
    if (base_ns <= 0.0) continue;  // a zero base has no meaningful ratio
    const double ratio = (cur_ns / cur_ref) / (base_ns / base_ref);
    ++stats.compared;
    const bool regressed = ratio > threshold;
    const bool improved = ratio < 1.0 / threshold;
    if (regressed) ++stats.regressions;
    std::printf("  %-9s %-42s %12.0f -> %12.0f ns   x%.3f\n",
                regressed ? "REGRESSED" : (improved ? "IMPROVED" : "ok"),
                name.c_str(), base_ns, cur_ns, ratio);
  }
  return stats;
}

// Records the accepted current file in the artifact store so passing runs
// accumulate into a content-addressed history, rooted per label.
void record_history(const std::string& store_dir, const std::string& label,
                    const std::string& base_path, const std::string& text,
                    double threshold, const std::string& relative_to) {
  con::store::Store store(store_dir);
  con::store::Derivation drv("bench-history", label);
  drv.set("content", con::store::hash_string(text));
  drv.set("base", con::store::hash_string(read_file(base_path)));
  drv.set("threshold", threshold);
  if (!relative_to.empty()) drv.set("relative-to", relative_to);
  const std::string path =
      store.realise(drv, [&](const std::string& tmp) {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        if (f == nullptr) {
          throw std::runtime_error("cannot write store object " + tmp);
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      });
  store.add_root("bench-history-" + label, path);
  std::printf("benchdiff: accepted run stored at %s\n", path.c_str());
}

std::string path_stem(const std::string& path) {
  std::string stem = path;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem;
}

}  // namespace

int main(int argc, char** argv) {
  bool regressed = false;
  try {
    con::util::CliFlags flags(argc, argv);
    const double threshold = flags.get_double("threshold", 1.5);
    const double noise_floor_ns = flags.get_double("noise-floor-ns", 50000.0);
    const std::string relative_to = flags.get_string("relative-to", "");
    const bool require_equal_counters =
        flags.get_bool("require-equal-counters", false);
    const std::string store_dir = flags.get_string("store", "");
    std::string label = flags.get_string("label", "");
    flags.check_unused();
    if (flags.positional().size() != 2 || threshold <= 1.0) {
      throw std::runtime_error(
          "usage: benchdiff [--threshold R>1] [--noise-floor-ns N] "
          "[--relative-to NAME] [--require-equal-counters] [--store DIR "
          "[--label NAME]] <base.json> <current.json>");
    }
    const std::string& base_path = flags.positional()[0];
    const std::string& cur_path = flags.positional()[1];
    const std::string cur_text = read_file(cur_path);
    const Json base = con::obs::parse_json(read_file(base_path));
    const Json current = con::obs::parse_json(cur_text);

    const bool manifest_mode = base.find("metrics") != nullptr;
    if (manifest_mode != (current.find("metrics") != nullptr)) {
      throw std::runtime_error(
          "cannot mix a run manifest with google-benchmark JSON");
    }
    std::printf("benchdiff: %s vs %s (threshold x%.2f%s)\n", base_path.c_str(),
                cur_path.c_str(), threshold,
                relative_to.empty()
                    ? ""
                    : (", relative to " + relative_to).c_str());

    const auto base_series =
        manifest_mode ? manifest_series(base) : bench_series(base);
    const auto cur_series =
        manifest_mode ? manifest_series(current) : bench_series(current);
    const DiffStats stats = diff_series(base_series, cur_series, threshold,
                                        noise_floor_ns, relative_to);
    if (stats.compared == 0 && stats.missing == 0) {
      throw std::runtime_error("no comparable series between the two files");
    }

    if (manifest_mode) {
      // Counters are exact by the determinism contract; time moved, counts
      // should not (for matched configurations).
      int mismatches = 0;
      const auto base_counters = manifest_counters(base);
      const auto cur_counters = manifest_counters(current);
      for (const auto& [name, base_v] : base_counters) {
        const auto it = cur_counters.find(name);
        if (it == cur_counters.end() || it->second == base_v) continue;
        std::printf("  COUNTER   %-42s %12lld -> %12lld\n", name.c_str(),
                    static_cast<long long>(base_v),
                    static_cast<long long>(it->second));
        ++mismatches;
      }
      if (mismatches > 0 && require_equal_counters) {
        std::printf("benchdiff: FAIL — %d counter(s) differ\n", mismatches);
        regressed = true;
      }
    }

    if (stats.regressions > 0) {
      std::printf("benchdiff: FAIL — %d of %d series regressed past x%.2f\n",
                  stats.regressions, stats.compared, threshold);
      regressed = true;
    } else {
      std::printf(
          "benchdiff: OK — %d series compared, %d under the noise floor, "
          "%d missing\n",
          stats.compared, stats.skipped_noise, stats.missing);
    }
    if (!regressed && !store_dir.empty()) {
      if (label.empty()) label = path_stem(cur_path);
      record_history(store_dir, label, base_path, cur_text, threshold,
                     relative_to);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchdiff: error: %s\n", e.what());
    return 2;
  }
  return regressed ? 1 : 0;
}
