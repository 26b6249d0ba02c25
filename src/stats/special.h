// Special functions backing the hypothesis tests: log-gamma, regularized
// incomplete beta, and the Student-t and F distribution tails built on them.
// Everything is double precision, measurement-side code (see
// metrics/running_stat.h for the convention: analysis code must not itself
// contribute rounding noise to the simulated device under study).
//
// The implementations are the classical numerically stable forms: Lanczos
// for log-gamma and a modified Lentz continued fraction for the incomplete
// beta — accurate to ~1e-12 over the parameter ranges the tests use
// (degrees of freedom from 1 to a few thousand).
#pragma once

namespace nnr::stats {

/// ln Γ(x) for x > 0 (Lanczos approximation, g = 7, 9 terms).
[[nodiscard]] double log_gamma(double x);

/// Regularized incomplete beta function I_x(a, b) for a, b > 0 and
/// x in [0, 1]. I_0 = 0, I_1 = 1, and I_x(a, b) = 1 - I_{1-x}(b, a).
[[nodiscard]] double incomplete_beta(double a, double b, double x);

/// Two-sided tail probability of a Student-t variate: P(|T_df| >= |t|).
[[nodiscard]] double student_t_two_sided_p(double t, double df);

/// Upper tail of an F(df1, df2) variate: P(F >= f).
[[nodiscard]] double f_upper_tail_p(double f, double df1, double df2);

}  // namespace nnr::stats
