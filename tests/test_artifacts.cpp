// Tests for the study-domain derivation closures (src/core/artifacts.h):
// each config axis must re-address exactly the artifacts whose closure
// contains it, and store-backed studies must be reproducible — two cold
// stores built from the same config hold byte-identical objects.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/params.h"
#include "compress/fixed_point.h"
#include "core/artifacts.h"
#include "core/study.h"
#include "core/sweeps.h"
#include "data/synth_digits.h"
#include "io/checkpoint.h"
#include "store/store.h"
#include "tensor/kernels/dispatch.h"

namespace con {
namespace {

using attacks::AttackKind;
using attacks::AttackParams;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

// A guaranteed-cold store root (/tmp persists across test-binary runs).
std::string fresh_store_dir(const std::string& stem) {
  const std::string dir = ::testing::TempDir() + "/con_store_" + stem + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

core::StudyConfig tiny_config() {
  core::StudyConfig cfg;
  cfg.network = "lenet5-small";
  cfg.train_size = 96;
  cfg.test_size = 48;
  cfg.attack_size = 12;
  cfg.baseline_epochs = 1;
  cfg.batch_size = 16;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 16;
  cfg.seed = 7;
  return cfg;
}

store::Hash fake_hash(const char* tag) { return store::hash_string(tag); }

// ------------------------------------------------ closure axis sensitivity

TEST(ArtifactClosures, SeedReaddressesTheWholeChain) {
  core::StudyConfig a = tiny_config();
  core::StudyConfig b = tiny_config();
  b.seed = 8;
  // The seed reaches the baseline through both the config and the init
  // state; use distinct init hashes the way a real run would.
  const store::Hash ds = fake_hash("dataset");
  const store::Hash drv_a =
      core::baseline_derivation(a, fake_hash("init-7"), ds).hash();
  const store::Hash drv_b =
      core::baseline_derivation(b, fake_hash("init-8"), ds).hash();
  EXPECT_NE(drv_a, drv_b);
  // Variant closures contain the baseline drv, so they move too.
  EXPECT_NE(core::pruned_derivation(a, drv_a, ds, 0.5, false).hash(),
            core::pruned_derivation(b, drv_b, ds, 0.5, false).hash());
}

TEST(ArtifactClosures, DensityReaddressesOneVariantOnly) {
  const core::StudyConfig cfg = tiny_config();
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash v50 =
      core::pruned_derivation(cfg, base, ds, 0.5, false).hash();
  const store::Hash v30 =
      core::pruned_derivation(cfg, base, ds, 0.3, false).hash();
  EXPECT_NE(v50, v30) << "density is a closure input of the pruned variant";
  EXPECT_NE(v50, core::pruned_derivation(cfg, base, ds, 0.5, true).hash())
      << "one-shot vs iterative pruning must not alias";
  // The baseline closure does not mention density: same baseline drv serves
  // both variants (that is the incremental-sweep property).
  EXPECT_NE(core::quantized_derivation(cfg, base, ds, 4, true).hash(),
            core::quantized_derivation(cfg, base, ds, 8, true).hash());
  EXPECT_NE(core::quantized_derivation(cfg, base, ds, 4, true).hash(),
            core::quantized_derivation(cfg, base, ds, 4, false).hash());
  EXPECT_NE(core::clustered_derivation(cfg, base, 2).hash(),
            core::clustered_derivation(cfg, base, 4).hash());
}

TEST(ArtifactClosures, EpsilonReaddressesCellsButNotCheckpoints) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");

  AttackParams p1{.epsilon = 0.1f, .iterations = 4};
  AttackParams p2{.epsilon = 0.2f, .iterations = 4};
  const store::Hash cell1 =
      core::transfer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                     p1, "cell")
          .hash();
  const store::Hash cell2 =
      core::transfer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                     p2, "cell")
          .hash();
  EXPECT_NE(cell1, cell2) << "epsilon is a closure input of the cell";
  EXPECT_NE(cell1,
            core::transfer_cell_derivation(base, variant, ds, 12,
                                           AttackKind::kFgsm, p1, "cell")
                .hash())
      << "the attack kind is a closure input of the cell";
  EXPECT_NE(cell1,
            core::transfer_cell_derivation(base, variant, ds, 24,
                                           AttackKind::kIfgsm, p1, "cell")
                .hash())
      << "the eval-subset size is a closure input of the cell";
  // ... while the checkpoints above know nothing about the attack: their
  // closures never see AttackParams, so the derivation factories do not even
  // accept them. Adversarial batches keyed off different sources differ.
  EXPECT_NE(core::adversarial_derivation(base, ds, 12, AttackKind::kIfgsm, p1,
                                         "adv")
                .hash(),
            core::adversarial_derivation(variant, ds, 12, AttackKind::kIfgsm,
                                         p1, "adv")
                .hash());
}

TEST(ArtifactClosures, TransferCellDistinguishesModelRoles) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash a = fake_hash("model-a");
  const store::Hash b = fake_hash("model-b");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  // Inputs are hashed as a sorted set, so role must come from attrs:
  // (baseline=a, variant=b) is a different cell than (baseline=b, variant=a).
  EXPECT_NE(core::transfer_cell_derivation(a, b, ds, 12, AttackKind::kIfgsm, p,
                                           "cell")
                .hash(),
            core::transfer_cell_derivation(b, a, ds, 12, AttackKind::kIfgsm, p,
                                           "cell")
                .hash());
}

TEST(Int8ArtifactClosures, IntegerCellsNeverAliasFloatCells) {
  // The deployed-int8 measurement is a different experiment from the
  // fake-quant float one: with byte-identical inputs and attack axes, the
  // two cells must live at different store addresses (distinct kind).
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  const auto f8 = compress::FixedPointFormat::paper_format(8);
  EXPECT_NE(core::integer_cell_derivation(base, variant, ds, 12,
                                          AttackKind::kIfgsm, p, "cell", f8, f8)
                .hash(),
            core::transfer_cell_derivation(base, variant, ds, 12,
                                           AttackKind::kIfgsm, p, "cell")
                .hash());
}

TEST(Int8ArtifactClosures, FormatAxesReaddressIntegerCells) {
  const store::Hash ds = fake_hash("dataset");
  const store::Hash base = fake_hash("baseline-drv");
  const store::Hash variant = fake_hash("variant-drv");
  AttackParams p{.epsilon = 0.1f, .iterations = 4};
  const auto f8 = compress::FixedPointFormat::paper_format(8);
  const auto f4 = compress::FixedPointFormat::paper_format(4);
  const store::Hash cell =
      core::integer_cell_derivation(base, variant, ds, 12, AttackKind::kIfgsm,
                                    p, "cell", f8, f8)
          .hash();
  EXPECT_NE(cell, core::integer_cell_derivation(base, variant, ds, 12,
                                                AttackKind::kIfgsm, p, "cell",
                                                f4, f8)
                      .hash())
      << "the weight format is a closure input of the integer cell";
  EXPECT_NE(cell, core::integer_cell_derivation(base, variant, ds, 12,
                                                AttackKind::kIfgsm, p, "cell",
                                                f8, f4)
                      .hash())
      << "the activation format is a closure input of the integer cell";
  // The attack axes keep re-addressing exactly as for float cells.
  AttackParams p2{.epsilon = 0.2f, .iterations = 4};
  EXPECT_NE(cell, core::integer_cell_derivation(base, variant, ds, 12,
                                                AttackKind::kIfgsm, p2, "cell",
                                                f8, f8)
                      .hash());
  EXPECT_NE(cell, core::integer_cell_derivation(base, variant, ds, 12,
                                                AttackKind::kFgsm, p, "cell",
                                                f8, f8)
                      .hash());
  // Role attrs still break the sorted-input-set symmetry.
  EXPECT_NE(cell, core::integer_cell_derivation(variant, base, ds, 12,
                                                AttackKind::kIfgsm, p, "cell",
                                                f8, f8)
                      .hash());
}

TEST(ArtifactClosures, DatasetHashIsContentSensitive) {
  data::SynthDigitsConfig dc;
  dc.train_size = 96;
  dc.test_size = 48;
  dc.seed = 7;
  const store::Hash h1 =
      core::dataset_content_hash(data::make_synth_digits(dc));
  EXPECT_EQ(h1, core::dataset_content_hash(data::make_synth_digits(dc)))
      << "the same generator config must hash identically";
  dc.seed = 8;
  EXPECT_NE(h1, core::dataset_content_hash(data::make_synth_digits(dc)));
}

TEST(ArtifactClosures, ScenarioPointRoundTripsBitExactly) {
  const std::string path = ::testing::TempDir() + "/scenario_point_test.bin";
  core::ScenarioPoint p;
  p.base_accuracy = 0.9375;
  p.comp_to_comp = 1.0 / 3.0;
  p.full_to_comp = 0.1;
  p.comp_to_full = 0.0;
  core::save_scenario_point(p, path);
  const core::ScenarioPoint q = core::load_scenario_point(path);
  EXPECT_EQ(p.base_accuracy, q.base_accuracy);
  EXPECT_EQ(p.comp_to_comp, q.comp_to_comp);
  EXPECT_EQ(p.full_to_comp, q.full_to_comp);
  EXPECT_EQ(p.comp_to_full, q.comp_to_full);
  std::remove(path.c_str());
}

// ------------------------------------------------------- end-to-end store

TEST(StoredStudy, TwoColdStoresAreByteIdentical) {
  // Reproducibility acceptance: the same config realised into two separate
  // cold stores must produce the same objects with the same bytes.
  core::StudyConfig cfg1 = tiny_config();
  cfg1.store_dir = fresh_store_dir("e2e_a");
  core::StudyConfig cfg2 = tiny_config();
  cfg2.store_dir = fresh_store_dir("e2e_b");

  core::Study s1(cfg1);
  core::Study s2(cfg2);
  const core::ModelArtifact v1 = s1.pruned_variant(0.5);
  const core::ModelArtifact v2 = s2.pruned_variant(0.5);
  EXPECT_EQ(v1.drv, v2.drv);

  const std::vector<std::string> o1 = s1.store().list_objects();
  const std::vector<std::string> o2 = s2.store().list_objects();
  ASSERT_EQ(o1.size(), o2.size());
  for (std::size_t i = 0; i < o1.size(); ++i) {
    // Same filename (address) under different roots, same bytes.
    const std::string n1 = o1[i].substr(o1[i].rfind('/') + 1);
    const std::string n2 = o2[i].substr(o2[i].rfind('/') + 1);
    EXPECT_EQ(n1, n2);
    EXPECT_EQ(read_file(o1[i]), read_file(o2[i])) << n1;
  }
}

TEST(StoredStudy, SecondStudyIsServedFromTheStore) {
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir("e2e_hit");

  core::Study cold(cfg);
  nn::Sequential& trained = cold.baseline();
  const store::Hash cold_drv = cold.baseline_drv_hash();

  core::Study warm(cfg);
  nn::Sequential& loaded = warm.baseline();
  EXPECT_EQ(warm.baseline_drv_hash(), cold_drv);
  EXPECT_EQ(io::model_state_hash(loaded).hex(),
            io::model_state_hash(trained).hex())
      << "a store hit must reproduce the trained state bit-exactly";
}

// ---------------------------------------------------------- ISA invariance

// Every file under <root>/objects by name; `.drv` sidecars without their
// observational registered-at line.
std::map<std::string, std::string> object_bytes(const std::string& root) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(root + "/objects")) {
    std::string bytes = read_file(e.path().string());
    if (e.path().extension() == ".drv") {
      bytes = bytes.substr(0, bytes.find("registered-at "));
    }
    out[e.path().filename().string()] = std::move(bytes);
  }
  return out;
}

// A baseline, one pruned and one quantised variant, one IFGSM float cell
// and one int8 cell, realised into a cold store on the active table.
std::map<std::string, std::string> realise_tiny_study(const std::string& stem) {
  core::StudyConfig cfg = tiny_config();
  cfg.store_dir = fresh_store_dir(stem);
  core::Study study(cfg);
  core::ModelArtifact pruned = study.pruned_variant(0.5);
  core::ModelArtifact quantized = study.quantized_variant(8);
  const AttackParams ifgsm{.epsilon = 0.02f, .iterations = 3};
  core::evaluate_scenarios_stored(study, pruned, core::CellKind::kFloat,
                                  AttackKind::kIfgsm, ifgsm);
  core::evaluate_scenarios_stored(study, quantized, core::CellKind::kInt8,
                                  AttackKind::kIfgsm, ifgsm);
  return object_bytes(cfg.store_dir);
}

TEST(IsaInvarianceTest, StudyObjectsByteIdenticalScalarVsBest) {
  // The precision contract end to end: the scalar table and the table the
  // host probe picks realise the same objects with the same bytes, so no
  // ISA needs to appear in a store address.
  namespace kernels = tensor::kernels;
  if (!kernels::isa_supported(kernels::Isa::kAvx2)) {
    GTEST_SKIP() << "this host runs only the scalar table";
  }
  std::map<std::string, std::string> scalar;
  {
    kernels::ScopedIsa scoped(kernels::Isa::kScalar);
    scalar = realise_tiny_study("isa_scalar");
  }
  ASSERT_EQ(kernels::active_isa(), kernels::Isa::kAvx2);
  const std::map<std::string, std::string> best =
      realise_tiny_study("isa_best");
  ASSERT_FALSE(scalar.empty());
  EXPECT_EQ(scalar.size(), best.size());
  for (const auto& [name, bytes] : scalar) {
    const auto it = best.find(name);
    ASSERT_NE(it, best.end()) << name << " missing under the default table";
    EXPECT_TRUE(bytes == it->second) << name << " differs";
  }
}

}  // namespace
}  // namespace con
