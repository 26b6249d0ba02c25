// Numerical accuracy of the special functions against closed-form anchors.
#include "stats/special.h"

#include <cmath>

#include <gtest/gtest.h>

namespace nnr::stats {
namespace {

TEST(LogGamma, MatchesFactorials) {
  // Gamma(n) = (n-1)! for integer n.
  double factorial = 1.0;
  for (int n = 1; n <= 15; ++n) {
    EXPECT_NEAR(log_gamma(n), std::log(factorial), 1e-10) << "n=" << n;
    factorial *= n;
  }
}

TEST(LogGamma, HalfIntegerAnchor) {
  // Gamma(1/2) = sqrt(pi).
  EXPECT_NEAR(log_gamma(0.5), 0.5 * std::log(M_PI), 1e-12);
  // Gamma(3/2) = sqrt(pi)/2.
  EXPECT_NEAR(log_gamma(1.5), std::log(std::sqrt(M_PI) / 2.0), 1e-12);
}

TEST(LogGamma, RecurrenceProperty) {
  // log Gamma(x+1) = log Gamma(x) + log x across the argument range the
  // tests exercise (df up to thousands).
  for (const double x : {0.3, 0.9, 1.7, 5.0, 42.5, 800.0, 5000.0}) {
    EXPECT_NEAR(log_gamma(x + 1.0), log_gamma(x) + std::log(x),
                1e-9 * std::fabs(log_gamma(x + 1.0)) + 1e-10)
        << "x=" << x;
  }
}

TEST(IncompleteBeta, Endpoints) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, SymmetricPointIsHalf) {
  // I_{1/2}(a, a) = 1/2 for any a.
  for (const double a : {0.5, 1.0, 2.0, 7.5, 30.0}) {
    EXPECT_NEAR(incomplete_beta(a, a, 0.5), 0.5, 1e-12) << "a=" << a;
  }
}

TEST(IncompleteBeta, UniformSpecialCase) {
  // I_x(1, 1) = x (Beta(1,1) is uniform).
  for (double x = 0.05; x < 1.0; x += 0.1) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-12);
  }
}

TEST(IncompleteBeta, ClosedFormA1) {
  // I_x(1, b) = 1 - (1-x)^b.
  for (const double b : {1.0, 2.0, 5.0}) {
    for (double x = 0.1; x < 1.0; x += 0.2) {
      EXPECT_NEAR(incomplete_beta(1.0, b, x), 1.0 - std::pow(1.0 - x, b),
                  1e-12);
    }
  }
}

TEST(IncompleteBeta, ReflectionSymmetry) {
  for (const double a : {0.7, 2.0, 11.0}) {
    for (const double b : {1.3, 4.0, 9.0}) {
      for (double x = 0.1; x < 1.0; x += 0.2) {
        EXPECT_NEAR(incomplete_beta(a, b, x),
                    1.0 - incomplete_beta(b, a, 1.0 - x), 1e-11);
      }
    }
  }
}

TEST(IncompleteBeta, MonotoneInX) {
  double prev = -1.0;
  for (double x = 0.0; x <= 1.0; x += 0.05) {
    const double v = incomplete_beta(3.0, 5.0, x);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(StudentT, LargeDfApproachesNormal) {
  // For huge df the t distribution is the standard normal; the two-sided
  // 1.96 tail must be ~0.05.
  EXPECT_NEAR(student_t_two_sided_p(1.959963984540054, 1e7), 0.05, 1e-4);
}

TEST(StudentT, KnownSmallDfQuantiles) {
  // t_{0.975, 10} = 2.228138852; two-sided p at that t must be 0.05.
  EXPECT_NEAR(student_t_two_sided_p(2.228138852, 10.0), 0.05, 1e-6);
  // t_{0.975, 4} = 2.776445105.
  EXPECT_NEAR(student_t_two_sided_p(2.776445105, 4.0), 0.05, 1e-6);
  // df = 1 is the Cauchy distribution: P(|T| >= 1) = 0.5.
  EXPECT_NEAR(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-10);
}

TEST(StudentT, ZeroStatisticIsCertain) {
  EXPECT_DOUBLE_EQ(student_t_two_sided_p(0.0, 9.0), 1.0);
}

TEST(StudentT, SymmetricInSign) {
  for (const double t : {0.5, 1.3, 2.9}) {
    EXPECT_DOUBLE_EQ(student_t_two_sided_p(t, 7.0),
                     student_t_two_sided_p(-t, 7.0));
  }
}

TEST(FDistribution, MedianOfF11) {
  // F(1,1) is the ratio of two chi^2_1; P(F >= 1) = 0.5 by symmetry.
  EXPECT_NEAR(f_upper_tail_p(1.0, 1.0, 1.0), 0.5, 1e-10);
}

TEST(FDistribution, KnownCriticalValue) {
  // F_{0.95}(4, 10) = 3.47805; upper tail at the critical value is 0.05.
  EXPECT_NEAR(f_upper_tail_p(3.47805, 4.0, 10.0), 0.05, 1e-4);
}

TEST(FDistribution, Extremes) {
  EXPECT_DOUBLE_EQ(f_upper_tail_p(0.0, 3.0, 3.0), 1.0);
  EXPECT_NEAR(f_upper_tail_p(1e12, 3.0, 3.0), 0.0, 1e-6);
}

}  // namespace
}  // namespace nnr::stats
