#include "stats/special.h"

#include <cassert>
#include <cmath>
#include <cstdint>

namespace nnr::stats {
namespace {

// Lanczos coefficients (g = 7, n = 9); relative error < 1e-13 for x > 0.
constexpr double kLanczos[9] = {
    0.99999999999980993,      676.5203681218851,     -1259.1392167224028,
    771.32342877765313,       -176.61502916214059,   12.507343278686905,
    -0.13857109526572012,     9.9843695780195716e-6, 1.5056327351493116e-7};

// Continued-fraction kernel for the incomplete beta (Numerical Recipes
// "betacf" form, modified Lentz iteration).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 1e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    // Even step.
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double log_gamma(double x) {
  assert(x > 0.0);
  if (x < 0.5) {
    // Reflection keeps the Lanczos argument in its accurate range.
    constexpr double kPi = 3.14159265358979323846;
    return std::log(kPi / std::sin(kPi * x)) - log_gamma(1.0 - x);
  }
  const double z = x - 1.0;
  double sum = kLanczos[0];
  for (int i = 1; i < 9; ++i) sum += kLanczos[i] / (z + i);
  const double t = z + 7.5;
  constexpr double kLogSqrt2Pi = 0.91893853320467274178;
  return kLogSqrt2Pi + (z + 0.5) * std::log(t) - t + std::log(sum);
}

double incomplete_beta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  // The continued fraction converges fast for x < (a+1)/(a+b+2); use the
  // symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(log_front) * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - std::exp(log_front) * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double student_t_two_sided_p(double t, double df) {
  assert(df > 0.0);
  if (!std::isfinite(t)) return 0.0;
  const double x = df / (df + t * t);
  // P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2).
  return incomplete_beta(0.5 * df, 0.5, x);
}

double f_upper_tail_p(double f, double df1, double df2) {
  assert(df1 > 0.0 && df2 > 0.0);
  if (f <= 0.0) return 1.0;
  if (!std::isfinite(f)) return 0.0;
  // P(F >= f) = I_{df2/(df2 + df1 f)}(df2/2, df1/2).
  return incomplete_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * f));
}

}  // namespace nnr::stats
