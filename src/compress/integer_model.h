// Whole-model deployed-integer inference.
//
// quantize_model (quant_activation.h) produces the *simulated* quantised
// model: weights and activations snap to the fixed-point grid but every
// multiply is still float. This module walks that same model and executes
// its Linear/Conv2d layers on the real int8 backend (nn::*::forward_int8 →
// tensor/gemm_int8.h): int8 codes, int32 accumulators, round-half-even
// requantisation — each quantised layer bit-identical to the
// compress::integer_exec oracle. Layers without an integer implementation
// (activations, pooling, batch-norm, the interleaved QuantActivation
// gates) run their normal float forward; QuantActivation re-snaps their
// outputs onto the grid, exactly as a deployed runtime would requantise
// between integer ops.
//
// The integer model is a *distinct measurement target* from the simulated
// one: the simulated path accumulates in float/double where deployment
// accumulates in int32 and requantises between layers, so logits (and thus
// attack transfer) can differ wherever an unquantised boundary — e.g.
// average pooling — feeds off-grid values into the next layer. core::Study
// measures attack transfer against this deployed form as its own scenario
// axis.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "compress/fixed_point.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace con::compress {

// Empty when `model` can run on the int8 backend; otherwise a
// human-readable reason why not. Executable means: activations quantised
// by QuantActivation layers sharing one ≤ 8-bit format, every Linear /
// Conv2d weight snapped by a ≤ 8-bit FixedPointWeightTransform, and
// accumulation depths inside int32 headroom. With the paper's bitwidth
// grid {4, 8, 12, 16, 24, 32}, exactly the 4- and 8-bit variants qualify.
std::string integer_blocker(nn::Sequential& model);
bool integer_executable(nn::Sequential& model);

// Deployed-integer forward pass. Throws std::invalid_argument (with the
// blocker text) when the model is not integer-executable. Results are
// bit-identical for any --threads and any kernel table (dispatch.h integer
// precision contract).
tensor::Tensor integer_forward(nn::Sequential& model, const tensor::Tensor& x);

// The (weight, activation) fixed-point formats the backend executes
// `model` with. Throws when the model is not integer-executable or when
// its Linear/Conv2d weight formats disagree (quantize_model always applies
// one format model-wide, so mixed formats indicate a hand-built model the
// study's derivation attributes cannot describe).
std::pair<FixedPointFormat, FixedPointFormat> integer_formats(
    nn::Sequential& model);

// Deployed-integer counterparts of nn::predict / nn::evaluate_accuracy:
// per-sample argmax classes and top-1 accuracy measured through
// integer_forward. Batches are evaluated in parallel over the global
// thread pool into per-sample slots, and the integer path itself is
// bit-identical under any thread count, so both values are thread-count
// and kernel-table invariant.
std::vector<int> integer_predict(nn::Sequential& model,
                                 const tensor::Tensor& images,
                                 int batch_size = 64);
double integer_accuracy(nn::Sequential& model, const tensor::Tensor& images,
                        const std::vector<int>& labels, int batch_size = 64);

}  // namespace con::compress
