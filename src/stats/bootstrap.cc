#include "stats/bootstrap.h"

#include <algorithm>
#include <cassert>

#include "metrics/running_stat.h"

namespace nnr::stats {
namespace {

double quantile_of_sorted(std::span<const double> sorted, double q) {
  assert(!sorted.empty());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

BootstrapCI ci_from_replicates(double point, std::vector<double>& stats,
                               double confidence) {
  std::sort(stats.begin(), stats.end());
  const double alpha = (1.0 - confidence) / 2.0;
  BootstrapCI ci;
  ci.point = point;
  ci.lo = quantile_of_sorted(stats, alpha);
  ci.hi = quantile_of_sorted(stats, 1.0 - alpha);
  ci.confidence = confidence;
  return ci;
}

double sample_stddev(std::span<const double> xs) {
  metrics::RunningStat s;
  for (const double x : xs) s.add(x);
  return s.stddev();
}

}  // namespace

BootstrapCI bootstrap_ci(std::span<const double> sample,
                         const Statistic& statistic, int resamples,
                         double confidence, rng::Generator& gen) {
  assert(!sample.empty() && resamples > 0);
  assert(confidence > 0.0 && confidence < 1.0);
  std::vector<double> resample(sample.size());
  std::vector<double> stats;
  stats.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    for (double& x : resample) {
      x = sample[static_cast<std::size_t>(gen.uniform_int(sample.size()))];
    }
    stats.push_back(statistic(resample));
  }
  return ci_from_replicates(statistic(sample), stats, confidence);
}

BootstrapCI bootstrap_stddev_ci(std::span<const double> sample, int resamples,
                                double confidence, rng::Generator& gen) {
  return bootstrap_ci(sample, sample_stddev, resamples, confidence, gen);
}

BootstrapCI bootstrap_pairwise_ci(
    const std::vector<std::vector<double>>& pair_stat, int resamples,
    double confidence, rng::Generator& gen) {
  const std::size_t n = pair_stat.size();
  assert(n >= 2 && resamples > 0);

  const auto pair_value = [&pair_stat](std::size_t i, std::size_t j) {
    return i < j ? pair_stat[i][j] : pair_stat[j][i];
  };

  // Point estimate: mean over all distinct unordered pairs.
  metrics::RunningStat point;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) point.add(pair_value(i, j));
  }

  std::vector<std::size_t> draw(n);
  std::vector<double> stats;
  stats.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    for (std::size_t& d : draw) {
      d = static_cast<std::size_t>(gen.uniform_int(n));
    }
    metrics::RunningStat s;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        // A replicate drawn twice pairs with itself; churn/L2 of a replicate
        // against itself is identically zero and would bias the mean down,
        // so self-pairs are skipped rather than scored.
        if (draw[i] != draw[j]) s.add(pair_value(draw[i], draw[j]));
      }
    }
    // Degenerate resample (all draws identical): statistic is undefined;
    // fall back to the point estimate so the quantiles stay well-formed.
    stats.push_back(s.count() > 0 ? s.mean() : point.mean());
  }
  return ci_from_replicates(point.mean(), stats, confidence);
}

}  // namespace nnr::stats
