// Figure 6 reproduction: cumulative distribution functions of all weights
// (a) and all activations (b) of CifarNet at several fixed-point
// quantisation levels. Activations use ten validation images, as in the
// paper.
//
// The paper's reading: the 4-bit model has visibly more zeros (its weight
// CDF is ~0.9 at 0) and clips earlier (reaches 1.0 before the others).
//
//   bench_fig6_cdf [--network cifarnet-small] [--bitwidths 4,8,16,32]
#include <cstdio>

#include "bench_common.h"
#include "compress/finetune.h"
#include "core/cdf.h"

using namespace con;

int run(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  bench::BenchSetup setup = bench::parse_common(flags, "cifarnet-small");
  const std::vector<int> bitwidths =
      flags.get_list<int>("bitwidths", {4, 8, 16, 32});
  flags.check_unused();

  core::Study study(setup.study);
  bench::record_study(setup, study);
  std::printf("== Figure 6: weight/activation CDFs of quantised %s ==\n",
              setup.study.network.c_str());
  std::printf("baseline accuracy %.3f\n", study.baseline_accuracy());

  // Ten validation images, as in the paper.
  const data::Dataset probe = study.test_set().take(10);

  struct ModelCdfs {
    int bits;
    core::Cdf weights;
    core::Cdf activations;
    double weight_zero_mass;
    float weight_max;
    float act_max;
  };
  std::vector<ModelCdfs> results;
  for (int bits : bitwidths) {
    nn::Sequential q = study.quantized_variant(bits).model;
    std::vector<float> w = core::gather_effective_weights(q);
    std::vector<float> a = core::gather_activations(q, probe.images);
    ModelCdfs r{.bits = bits,
                .weights = core::compute_cdf(w, 64),
                .activations = core::compute_cdf(a, 64),
                .weight_zero_mass = 0.0,
                .weight_max = 0.0f,
                .act_max = 0.0f};
    std::size_t zeros = 0;
    for (float v : w) {
      if (v == 0.0f) ++zeros;
      r.weight_max = std::max(r.weight_max, std::fabs(v));
    }
    for (float v : a) r.act_max = std::max(r.act_max, v);
    r.weight_zero_mass = static_cast<double>(zeros) / w.size();
    results.push_back(std::move(r));
  }

  // (a) weight CDF sampled on a fixed x-grid so the series are comparable.
  {
    util::Table t({"x", "cdf_4bit", "cdf_8bit", "cdf_16bit", "cdf_32bit"});
    for (float x = -1.0f; x <= 1.0f + 1e-6f; x += 0.125f) {
      std::vector<double> row = {x};
      for (const ModelCdfs& r : results) {
        row.push_back(core::cdf_at(r.weights, x));
      }
      t.add_row_values(row, 3);
    }
    bench::emit_table(t, "fig6a_weight_cdf", "-- Fig.6a: weight CDFs");
  }
  // (b) activation CDF.
  {
    util::Table t({"x", "cdf_4bit", "cdf_8bit", "cdf_16bit", "cdf_32bit"});
    for (float x = 0.0f; x <= 4.0f + 1e-6f; x += 0.25f) {
      std::vector<double> row = {x};
      for (const ModelCdfs& r : results) {
        row.push_back(core::cdf_at(r.activations, x));
      }
      t.add_row_values(row, 3);
    }
    bench::emit_table(t, "fig6b_activation_cdf",
                      "-- Fig.6b: activation CDFs (10 validation images)");
  }

  // Summary stats + shape checks.
  util::Table s({"bitwidth", "weight_zero_mass", "weight_|max|", "act_max"});
  for (const ModelCdfs& r : results) {
    s.add_row({std::to_string(r.bits),
               util::format_double(r.weight_zero_mass, 3),
               util::format_double(r.weight_max, 3),
               util::format_double(r.act_max, 3)});
  }
  bench::emit_table(s, "fig6_summary", "-- Fig.6 summary statistics");

  if (results.front().bits == 4) {
    const ModelCdfs& r4 = results.front();
    const ModelCdfs& r_hi = results.back();
    bench::shape_check(r4.weight_zero_mass > r_hi.weight_zero_mass + 0.1,
                       "4-bit model has clearly more zero weights");
    // Q1.3 bounds are [-1.0, 0.875]; the magnitude bound is therefore 1.0.
    bench::shape_check(r4.weight_max <= 1.0f + 1e-6f,
                       "4-bit weights clip at the 1-integer-bit bound");
    bench::shape_check(r4.act_max <= r_hi.act_max + 1e-6f,
                       "4-bit activations are clipped to a smaller max");
  }
  bench::finish_run(setup, "bench_fig6_cdf");
  return 0;
}

int main(int argc, char** argv) {
  return bench::run_main(argc, argv, run);
}
