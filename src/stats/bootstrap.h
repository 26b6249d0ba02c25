// Percentile-bootstrap confidence intervals for the paper's replicate-level
// estimates.
//
// The study reports stddev(accuracy), mean churn, and mean L2 over 10 (or 5)
// replicates — small samples whose sampling error the paper never quantifies.
// This module adds that missing error bar: resample replicates with
// replacement, recompute the statistic, and report percentile bounds. The
// resampling stream is an explicit rng::Generator so results are reproducible
// end to end like every other stochastic component in the library.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rng/generator.h"

namespace nnr::stats {

struct BootstrapCI {
  double point = 0.0;  // statistic on the original sample
  double lo = 0.0;     // lower percentile bound
  double hi = 0.0;     // upper percentile bound
  double confidence = 0.95;

  [[nodiscard]] double width() const noexcept { return hi - lo; }
  [[nodiscard]] bool contains(double v) const noexcept {
    return v >= lo && v <= hi;
  }
};

/// Statistic evaluated on a resampled vector of observations.
using Statistic = std::function<double(std::span<const double>)>;

/// Generic percentile bootstrap: `resamples` resamples of `sample` (with
/// replacement, same size), statistic recomputed on each, CI from the
/// empirical (1-confidence)/2 and 1-(1-confidence)/2 quantiles.
/// Precondition: sample is non-empty and resamples > 0.
[[nodiscard]] BootstrapCI bootstrap_ci(std::span<const double> sample,
                                       const Statistic& statistic,
                                       int resamples, double confidence,
                                       rng::Generator& gen);

/// CI for the sample standard deviation (n-1 denominator) — the error bar on
/// the paper's headline STDDEV(Accuracy) numbers.
[[nodiscard]] BootstrapCI bootstrap_stddev_ci(std::span<const double> sample,
                                              int resamples, double confidence,
                                              rng::Generator& gen);

/// CI for a pairwise statistic such as mean churn: resamples *replicates*
/// (not pairs — pairs sharing a replicate are dependent) and recomputes the
/// mean over all distinct unordered pairs of the resample, skipping
/// self-pairs created by duplicate draws.
///
/// `pair_stat[i][j]` must hold the statistic for replicate pair (i, j);
/// only i < j entries are read. Precondition: at least 2 replicates.
[[nodiscard]] BootstrapCI bootstrap_pairwise_ci(
    const std::vector<std::vector<double>>& pair_stat, int resamples,
    double confidence, rng::Generator& gen);

}  // namespace nnr::stats
