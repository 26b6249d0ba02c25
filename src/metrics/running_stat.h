// Streaming mean / standard deviation (Welford). Metrics are computed in
// double precision: they are measurement-side code, not part of the simulated
// device, so they must not themselves contribute rounding noise.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace nnr::metrics {

class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }

  /// Sample standard deviation (n-1 denominator), matching the paper's
  /// "standard deviation over 10 independent runs".
  [[nodiscard]] double stddev() const noexcept {
    return n_ > 1 ? std::sqrt(m2_ / static_cast<double>(n_ - 1)) : 0.0;
  }

  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace nnr::metrics
