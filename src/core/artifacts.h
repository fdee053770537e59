// Derivation builders for the study domain.
//
// Every artifact the experiment grid produces — trained baseline
// checkpoints, compressed variants, adversarial batches, transfer-matrix
// cells — is addressed in the content store by a derivation whose closure
// names all of its inputs. This header is the single place those closures
// are defined, so "what invalidates what" is auditable:
//
//   baseline      <- init-state hash (topology + init scheme + seed),
//                    dataset content hash, training config
//   variant       <- baseline drv, compression op + level, finetune config,
//                    dataset content hash
//   adversarial   <- source-model drv, attack + params, eval-subset size
//   transfer cell <- baseline drv, variant drv, attack + params,
//                    eval-subset size
//
// Changing one axis (a seed, a density, an epsilon) re-addresses exactly
// the derivations whose closure contains it: a new epsilon rebuilds every
// cell but no checkpoint; a new density rebuilds one variant and its
// row of cells; a new seed rebuilds everything. Dataset and initial-weight
// inputs enter as content hashes, so editing models::make_model or a synth
// generator invalidates checkpoints even though no config field changed —
// the aliasing bug the old string keys had.
#pragma once

#include <string>

#include "attacks/params.h"
#include "compress/fixed_point.h"
#include "core/study.h"
#include "core/transfer.h"
#include "store/derivation.h"

namespace con::core {

store::Hash dataset_content_hash(const data::TrainTestSplit& split);

store::Derivation baseline_derivation(const StudyConfig& config,
                                      const store::Hash& init_state,
                                      const store::Hash& dataset);

store::Derivation pruned_derivation(const StudyConfig& config,
                                    const store::Hash& baseline_drv,
                                    const store::Hash& dataset, double density,
                                    bool one_shot);

store::Derivation quantized_derivation(const StudyConfig& config,
                                       const store::Hash& baseline_drv,
                                       const store::Hash& dataset, int bits,
                                       bool quantize_activations);

store::Derivation clustered_derivation(const StudyConfig& config,
                                       const store::Hash& baseline_drv,
                                       int bits);

// Adversarial batch crafted against the model identified by `source_drv`
// over the first `attack_size` samples of the test split.
store::Derivation adversarial_derivation(const store::Hash& source_drv,
                                         const store::Hash& dataset,
                                         tensor::Index attack_size,
                                         attacks::AttackKind attack,
                                         const attacks::AttackParams& params,
                                         const std::string& name);

// One transfer-matrix cell: the four scenario accuracies for a
// (baseline, variant) pair under one attack.
store::Derivation transfer_cell_derivation(const store::Hash& baseline_drv,
                                           const store::Hash& variant_drv,
                                           const store::Hash& dataset,
                                           tensor::Index attack_size,
                                           attacks::AttackKind attack,
                                           const attacks::AttackParams& params,
                                           const std::string& name);

// One deployed-integer transfer cell: the four scenario accuracies with
// the compressed model executed on the int8 backend
// (core::evaluate_scenarios_integer). A distinct kind plus the weight /
// activation fixed-point formats as attributes keep integer cells at
// addresses that can never alias the fake-quant float cells above, and
// re-address every cell when either format axis moves.
store::Derivation integer_cell_derivation(
    const store::Hash& baseline_drv, const store::Hash& variant_drv,
    const store::Hash& dataset, tensor::Index attack_size,
    attacks::AttackKind attack, const attacks::AttackParams& params,
    const std::string& name, const compress::FixedPointFormat& weight_format,
    const compress::FixedPointFormat& activation_format);

// Tiny binary payload for a stored cell (magic + version + four doubles);
// loading a stored cell is provably equivalent to recomputing it because
// doubles round-trip bit-exactly.
void save_scenario_point(const ScenarioPoint& p, const std::string& path);
ScenarioPoint load_scenario_point(const std::string& path);

}  // namespace con::core
