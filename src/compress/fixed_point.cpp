#include "compress/fixed_point.h"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels/dispatch.h"
#include "tensor/ops.h"

namespace con::compress {

using tensor::Index;

float FixedPointFormat::step() const {
  return std::ldexp(1.0f, -fraction_bits());
}

float FixedPointFormat::inv_step() const {
  return std::ldexp(1.0f, fraction_bits());
}

float FixedPointFormat::lo() const {
  return -std::ldexp(1.0f, integer_bits - 1);
}

float FixedPointFormat::hi() const {
  return std::ldexp(1.0f, integer_bits - 1) - step();
}

FixedPointFormat FixedPointFormat::paper_format(int total_bits) {
  if (total_bits < 2) {
    throw std::invalid_argument("fixed-point bitwidth must be >= 2");
  }
  int integer_bits = 4;
  if (total_bits == 4) integer_bits = 1;
  else if (total_bits == 8) integer_bits = 2;
  if (integer_bits >= total_bits) integer_bits = total_bits - 1;
  return FixedPointFormat{.total_bits = total_bits,
                          .integer_bits = integer_bits};
}

std::string FixedPointFormat::to_string() const {
  return "Q" + std::to_string(integer_bits) + "." +
         std::to_string(fraction_bits()) + " (" + std::to_string(total_bits) +
         " bits)";
}

void fake_quantize(const FixedPointFormat& fmt, const float* in, float* out,
                   float* gate, Index n) {
  const tensor::kernels::KernelTable& kt = tensor::kernels::active();
  const float inv_step = fmt.inv_step(), step = fmt.step();
  const float lo = fmt.lo(), hi = fmt.hi();
  tensor::parallel_for_chunks(n, [&](Index b, Index e) {
    kt.fake_quant(out + b, gate + b, in + b, inv_step, step, lo, hi, e - b);
  });
}

float fixed_point_quantize(float v, const FixedPointFormat& fmt) {
  float q = 0.0f, gate = 0.0f;
  fake_quantize(fmt, &v, &q, &gate, 1);
  return q;
}

Tensor fixed_point_quantize(const Tensor& t, const FixedPointFormat& fmt) {
  Tensor out(t.shape());
  Tensor gate(t.shape());
  fake_quantize(fmt, t.data(), out.data(), gate.data(), t.numel());
  return out;
}

void FixedPointWeightTransform::apply(const Tensor& raw, Tensor& effective,
                                      Tensor& gate) const {
  fake_quantize(fmt_, raw.data(), effective.data(), gate.data(), raw.numel());
}

std::string FixedPointWeightTransform::describe() const {
  return "fixed-point " + fmt_.to_string();
}

}  // namespace con::compress
