// Hypothesis tests for comparing noise regimes.
//
// The paper's claims are comparative — "ALGO contributes higher levels of
// instability relative to IMPL factors", "this is not always a pronounced
// gap" (§3.1) — but are made from point estimates over 10 replicates. These
// tests put p-values behind such statements:
//
//   - Welch's t-test: difference in mean accuracy / churn between regimes
//     without assuming equal variances (regimes differ in variance by
//     construction — that is the study's subject).
//   - Brown-Forsythe (median-centered Levene): equality of *variances*
//     across regimes — the correct test for STDDEV(Accuracy) gaps, robust
//     to the non-normality of accuracy over replicates.
#pragma once

#include <span>
#include <vector>

namespace nnr::stats {

struct TestResult {
  double statistic = 0.0;  // t or F
  double df = 0.0;         // degrees of freedom
  double p_value = 1.0;    // two-sided unless documented otherwise
};

/// Welch's unequal-variance t-test for the difference of means of two
/// independent samples. Welch-Satterthwaite degrees of freedom. Both samples
/// need >= 2 observations. Zero variance in both samples with equal means
/// yields p = 1; with unequal means yields p = 0.
[[nodiscard]] TestResult welch_t_test(std::span<const double> a,
                                      std::span<const double> b);

/// Brown-Forsythe test for equality of variances across k >= 2 groups:
/// one-way ANOVA F-test on |x - median(group)|. Each group needs >= 2
/// observations.
[[nodiscard]] TestResult brown_forsythe_test(
    std::span<const std::vector<double>> groups);

}  // namespace nnr::stats
