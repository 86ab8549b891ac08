#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "kernels/kernels.hpp"

namespace pfi {

std::string shape_to_string(const Shape& s) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ", ";
    os << s[i];
  }
  os << "]";
  return os.str();
}

std::int64_t shape_numel(const Shape& s) {
  std::int64_t n = 1;
  for (const auto d : s) {
    PFI_CHECK(d >= 0) << "negative dimension in shape " << shape_to_string(s);
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      storage_(std::make_shared<std::vector<float>>(numel_, 0.0f)) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      storage_(std::make_shared<std::vector<float>>(numel_, fill)) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      storage_(std::make_shared<std::vector<float>>(std::move(values))) {
  PFI_CHECK(static_cast<std::int64_t>(storage_->size()) == numel_)
      << "value count " << storage_->size() << " does not match shape "
      << shape_to_string(shape_);
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data()) v = rng.normal(mean, stddev);
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t({n});
  for (std::int64_t i = 0; i < n; ++i) t[i] = static_cast<float>(i);
  return t;
}

std::int64_t Tensor::size(std::int64_t d) const {
  const auto rank = dim();
  if (d < 0) d += rank;
  PFI_CHECK(d >= 0 && d < rank)
      << "dimension " << d << " out of range for " << to_string();
  return shape_[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::offset_of(std::int64_t n, std::int64_t c, std::int64_t h,
                               std::int64_t w) const {
  PFI_CHECK(dim() == 4) << "NCHW access on " << to_string();
  PFI_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && h >= 0 &&
            h < shape_[2] && w >= 0 && w < shape_[3])
      << "index (" << n << ", " << c << ", " << h << ", " << w
      << ") out of range for " << to_string();
  return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
}

float& Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) {
  return (*storage_)[static_cast<std::size_t>(offset_of(n, c, h, w))];
}

float Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w) const {
  return (*storage_)[static_cast<std::size_t>(offset_of(n, c, h, w))];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  PFI_CHECK(dim() == 2) << "2-D access on " << to_string();
  PFI_CHECK(r >= 0 && r < shape_[0] && c >= 0 && c < shape_[1])
      << "index (" << r << ", " << c << ") out of range for " << to_string();
  return (*storage_)[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

Tensor Tensor::clone() const {
  PFI_CHECK(defined()) << "clone of undefined tensor";
  Tensor out;
  out.shape_ = shape_;
  out.numel_ = numel_;
  out.storage_ = std::make_shared<std::vector<float>>(*storage_);
  return out;
}

Tensor Tensor::reshape(Shape new_shape) const {
  PFI_CHECK(defined()) << "reshape of undefined tensor";
  PFI_CHECK(shape_numel(new_shape) == numel_)
      << "reshape " << to_string() << " -> " << shape_to_string(new_shape)
      << " changes element count";
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  out.storage_ = storage_;
  return out;
}

void Tensor::fill(float v) {
  std::fill(storage_->begin(), storage_->end(), v);
}

void Tensor::copy_from(const Tensor& src) {
  PFI_CHECK(src.shape_ == shape_)
      << "copy_from shape mismatch: " << to_string() << " vs "
      << src.to_string();
  std::copy(src.storage_->begin(), src.storage_->end(), storage_->begin());
}

void Tensor::add_(const Tensor& src, float alpha) {
  PFI_CHECK(src.shape_ == shape_)
      << "add_ shape mismatch: " << to_string() << " vs " << src.to_string();
  const auto& s = *src.storage_;
  auto& d = *storage_;
  for (std::size_t i = 0; i < d.size(); ++i) d[i] += alpha * s[i];
}

void Tensor::scale_(float s) {
  for (auto& v : *storage_) v *= s;
}

float Tensor::sum() const {
  return std::accumulate(storage_->begin(), storage_->end(), 0.0f);
}

float Tensor::mean() const {
  PFI_CHECK(numel_ > 0) << "mean of empty tensor";
  return sum() / static_cast<float>(numel_);
}

float Tensor::max() const {
  PFI_CHECK(numel_ > 0) << "max of empty tensor";
  return *std::max_element(storage_->begin(), storage_->end());
}

float Tensor::min() const {
  PFI_CHECK(numel_ > 0) << "min of empty tensor";
  return *std::min_element(storage_->begin(), storage_->end());
}

std::int64_t Tensor::argmax() const {
  PFI_CHECK(numel_ > 0) << "argmax of empty tensor";
  return static_cast<std::int64_t>(std::distance(
      storage_->begin(), std::max_element(storage_->begin(), storage_->end())));
}

float Tensor::squared_norm() const {
  float acc = 0.0f;
  for (const auto v : *storage_) acc += v * v;
  return acc;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  PFI_CHECK(other.shape_ == shape_)
      << "max_abs_diff shape mismatch: " << to_string() << " vs "
      << other.to_string();
  float m = 0.0f;
  for (std::int64_t i = 0; i < numel_; ++i) {
    m = std::max(m, std::abs((*storage_)[i] - (*other.storage_)[i]));
  }
  return m;
}

std::string Tensor::to_string() const {
  if (!defined()) return "Tensor(undefined)";
  return "Tensor" + shape_to_string(shape_);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  PFI_CHECK(a.dim() == 2 && b.dim() == 2)
      << "matmul needs 2-D operands, got " << a.to_string() << " and "
      << b.to_string();
  const auto m = a.size(0), k = a.size(1), k2 = b.size(0), n = b.size(1);
  PFI_CHECK(k == k2) << "matmul inner dims differ: " << a.to_string() << " x "
                     << b.to_string();
  Tensor c({m, n});
  // The blocked kernel is IEEE-faithful — no zero-skip — so injected
  // Inf/NaN propagate through matrix products.
  kernels::gemm_blocked(m, n, k, a.data().data(), k, false, b.data().data(), n,
                        false, c.data().data(), n, kernels::Epilogue::kZero);
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  out.add_(b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  PFI_CHECK(a.shape() == b.shape())
      << "mul shape mismatch: " << a.to_string() << " vs " << b.to_string();
  Tensor out = a.clone();
  auto d = out.data();
  auto s = b.data();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= s[i];
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  return a.max_abs_diff(b) <= atol;
}

}  // namespace pfi
