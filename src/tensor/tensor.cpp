#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace con::tensor {

namespace {

std::atomic<std::uint64_t> g_buffer_allocations{0};

// conlint:lockfree(monotonic tally, never used to order other memory operations)
inline void count_allocation(std::size_t elems) {
  if (elems > 0) g_buffer_allocations.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// conlint:lockfree(reads the monotonic tally; callers compare totals across quiesced phases)
std::uint64_t Tensor::buffer_allocations() {
  return g_buffer_allocations.load(std::memory_order_relaxed);
}

void Shape::validate() const {
  for (Index d : dims_) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
  }
}

Index Shape::dim(Index i) const {
  if (i < 0 || i >= rank()) {
    throw std::out_of_range("shape dim index " + std::to_string(i) +
                            " out of range for rank " + std::to_string(rank()));
  }
  return dims_[static_cast<std::size_t>(i)];
}

Index Shape::numel() const {
  Index n = 1;
  for (Index d : dims_) n *= d;
  return n;
}

std::string Shape::to_string() const {
  std::string s = "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(dims_[i]);
  }
  s += "]";
  return s;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.numel()), 0.0f) {
  count_allocation(data_.size());
}

Tensor::Tensor(Shape shape, float fill_value)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.numel()), fill_value) {
  count_allocation(data_.size());
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<Index>(data_.size()) != shape_.numel()) {
    throw std::invalid_argument("value count " + std::to_string(data_.size()) +
                                " does not match shape " + shape_.to_string());
  }
  count_allocation(data_.size());
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  count_allocation(data_.size());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (other.data_.size() > data_.capacity()) {
    count_allocation(other.data_.size());
  }
  shape_ = other.shape_;
  data_ = other.data_;
  return *this;
}

void Tensor::resize(Shape new_shape) {
  shape_ = std::move(new_shape);
  const auto n = static_cast<std::size_t>(shape_.numel());
  if (n > data_.capacity()) count_allocation(n);
  data_.assign(n, 0.0f);
}

void Tensor::ensure_shape(const Shape& new_shape) {
  // A default tensor has rank 0 but no element, hence the numel test.
  if (shape_ == new_shape && numel() == new_shape.numel()) return;
  resize(new_shape);
}

void Tensor::shrink_rows(Index new_rows) {
  if (rank() < 1) throw std::invalid_argument("shrink_rows: rank 0");
  if (new_rows < 0 || new_rows > dim(0)) {
    throw std::out_of_range("shrink_rows: bad row count");
  }
  std::vector<Index> dims = shape_.dims();
  const Index stride = dims[0] == 0 ? 0 : numel() / dims[0];
  dims[0] = new_rows;
  shape_ = Shape{std::move(dims)};
  data_.resize(static_cast<std::size_t>(new_rows * stride));
}

Index Tensor::flat_index(std::initializer_list<Index> idx) const {
  if (static_cast<Index>(idx.size()) != shape_.rank()) {
    throw std::invalid_argument("index rank mismatch");
  }
  Index flat = 0;
  Index axis = 0;
  for (Index i : idx) {
    const Index extent = shape_.dim(axis);
    if (i < 0 || i >= extent) {
      throw std::out_of_range("index " + std::to_string(i) +
                              " out of range for axis " + std::to_string(axis));
    }
    flat = flat * extent + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<Index> idx) {
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

float Tensor::at(std::initializer_list<Index> idx) const {
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("reshape from " + shape_.to_string() + " to " +
                                new_shape.to_string() +
                                " changes element count");
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

std::string Tensor::to_string(Index max_elems) const {
  std::string s = "Tensor" + shape_.to_string() + " {";
  const Index n = std::min<Index>(numel(), max_elems);
  char buf[32];
  for (Index i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", i ? ", " : "", data_[i]);
    s += buf;
  }
  if (numel() > max_elems) s += ", ...";
  s += "}";
  return s;
}

}  // namespace con::tensor
