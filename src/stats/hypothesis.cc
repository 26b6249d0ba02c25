#include "stats/hypothesis.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "metrics/running_stat.h"
#include "stats/special.h"

namespace nnr::stats {
namespace {

double median_of(std::vector<double> xs) {
  assert(!xs.empty());
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  double m = xs[mid];
  if (xs.size() % 2 == 0) {
    const auto below =
        std::max_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + *below);
  }
  return m;
}

double mean_of(std::span<const double> xs) {
  metrics::RunningStat s;
  for (const double x : xs) s.add(x);
  return s.mean();
}

}  // namespace

TestResult welch_t_test(std::span<const double> a, std::span<const double> b) {
  assert(a.size() >= 2 && b.size() >= 2);
  metrics::RunningStat sa;
  metrics::RunningStat sb;
  for (const double x : a) sa.add(x);
  for (const double x : b) sb.add(x);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double va = sa.stddev() * sa.stddev() / na;
  const double vb = sb.stddev() * sb.stddev() / nb;
  const double diff = sa.mean() - sb.mean();

  TestResult r;
  if (va + vb == 0.0) {
    // Both samples are constant: the test degenerates. Equal means are a
    // perfect null fit; unequal means are incompatible with any variance.
    r.statistic = diff == 0.0 ? 0.0 : std::copysign(
        std::numeric_limits<double>::infinity(), diff);
    r.df = na + nb - 2.0;
    r.p_value = diff == 0.0 ? 1.0 : 0.0;
    return r;
  }
  r.statistic = diff / std::sqrt(va + vb);
  r.df = (va + vb) * (va + vb) /
         (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  r.p_value = student_t_two_sided_p(r.statistic, r.df);
  return r;
}

TestResult brown_forsythe_test(std::span<const std::vector<double>> groups) {
  assert(groups.size() >= 2);
  // Transform to absolute deviations from the group median, then one-way
  // ANOVA on the transformed data.
  std::vector<std::vector<double>> z(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    assert(groups[g].size() >= 2);
    const double med = median_of(groups[g]);
    z[g].reserve(groups[g].size());
    for (const double x : groups[g]) z[g].push_back(std::fabs(x - med));
  }

  metrics::RunningStat grand;
  for (const auto& zg : z) {
    for (const double v : zg) grand.add(v);
  }
  const double k = static_cast<double>(groups.size());
  const double n = static_cast<double>(grand.count());

  double ss_between = 0.0;
  double ss_within = 0.0;
  for (const auto& zg : z) {
    const double zbar = mean_of(zg);
    ss_between += static_cast<double>(zg.size()) * (zbar - grand.mean()) *
                  (zbar - grand.mean());
    for (const double v : zg) ss_within += (v - zbar) * (v - zbar);
  }

  TestResult r;
  r.df = k - 1.0;  // numerator df; denominator df is n - k
  const double df2 = n - k;
  if (ss_within == 0.0) {
    r.statistic = ss_between == 0.0
                      ? 0.0
                      : std::numeric_limits<double>::infinity();
    r.p_value = ss_between == 0.0 ? 1.0 : 0.0;
    return r;
  }
  r.statistic = (ss_between / (k - 1.0)) / (ss_within / df2);
  r.p_value = f_upper_tail_p(r.statistic, k - 1.0, df2);
  return r;
}

}  // namespace nnr::stats
