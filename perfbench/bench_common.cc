#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace perfbench {

double SpeedProbe::speed() {
  // A naive float GEMM (128^3 multiply-adds, about 1 ms on a 2.1 GHz Xeon
  // core), five times on each thread.
  constexpr int kN = 128;
  constexpr int kReps = 5;
  std::vector<std::vector<double>> ms(static_cast<std::size_t>(threads_));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads_; ++t) {
    workers.emplace_back([&ms, t] {
      std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
      volatile float keep = 0.0F;  // the products are used, so computed
      for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>(i % 7) * 0.25F;
        b[i] = static_cast<float>(i % 5) * 0.5F;
      }
      for (int r = 0; r < kReps; ++r) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kN; ++i) {
          for (int j = 0; j < kN; ++j) {
            float sum = 0.0F;
            for (int k = 0; k < kN; ++k) sum += a[i * kN + k] * b[j * kN + k];
            c[i * kN + j] = sum;
          }
        }
        ms[static_cast<std::size_t>(t)].push_back(ms_between(t0, now_ns()));
        keep = keep + c[static_cast<std::size_t>(r)];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<double> all;
  for (const auto& v : ms) all.insert(all.end(), v.begin(), v.end());
  history_.push_back(kReferenceMs / percentile(all, 0.5));
  const std::size_t n = std::min<std::size_t>(history_.size(), 3);
  return percentile({history_.end() - static_cast<std::ptrdiff_t>(n), history_.end()},
                    0.5);
}

double timed_setups(SpeedProbe probe,
                    const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    const double speed = probe.speed();
    const std::int64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9 * speed);
  }
  return percentile(seconds, 0.5);
}

namespace {

template <typename T>
bool same_vector_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_double_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool same_bits(const nnr::core::RunResult& a, const nnr::core::RunResult& b) {
  return same_vector_bits(a.test_predictions, b.test_predictions) &&
         same_vector_bits(a.test_confidences, b.test_confidences) &&
         same_vector_bits(a.final_weights, b.final_weights) &&
         same_double_bits(a.test_accuracy, b.test_accuracy) &&
         same_double_bits(a.final_train_loss, b.final_train_loss);
}

void SampleSink::add(std::size_t tag, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.emplace_back(tag, ms);
}

std::vector<double> SampleSink::all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) out.push_back(s.second);
  return out;
}

std::vector<double> SampleSink::for_tag(std::size_t tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& s : samples_) {
    if (s.first == tag) out.push_back(s.second);
  }
  return out;
}

std::size_t SampleSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

void SampleSink::scale_since(std::size_t from, double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = from; i < samples_.size(); ++i) samples_[i].second *= factor;
}

void SampleSink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
}

void Phase::add_batch(std::int64_t ns, std::int64_t settled, double speed) {
  timed_ns += ns;
  replicates += settled;
  ++batches;
  rates.push_back(static_cast<double>(settled) * 1e9 / static_cast<double>(ns) /
                  speed);
}

double Phase::rate() const {
  return timed_ns > 0 ? static_cast<double>(replicates) * 1e9 /
                            static_cast<double>(timed_ns)
                      : 0.0;
}

Phase& Phase::operator+=(const Phase& other) {
  timed_ns += other.timed_ns;
  replicates += other.replicates;
  batches += other.batches;
  rates.insert(rates.end(), other.rates.begin(), other.rates.end());
  return *this;
}

void report_rate(const Phase& phase, RunOutput& out) {
  const std::vector<double>& r = phase.rates;
  out.metrics["replicates_per_s"] = percentile(r, 0.5);
  out.notes.push_back(strf("batch rates at reference speed (1/s): min %.4g q1 %.4g "
                           "median %.4g q3 %.4g max %.4g over %zu timed batches; "
                           "as measured %.4g",
                           percentile(r, 0.0), percentile(r, 0.25), percentile(r, 0.5),
                           percentile(r, 0.75), percentile(r, 1.0), r.size(),
                           phase.rate()));
}

void report_latency(const std::vector<double>& samples, RunOutput& out) {
  const auto n = static_cast<std::int64_t>(samples.size());
  out.metrics["replicate_ms_p50"] = percentile(samples, 0.5);
  out.metrics["replicate_ms_p90"] = percentile(samples, 0.9);
  out.notes.push_back(strf("latency samples n=%lld, %lld beyond p90 (rule: >= %lld)",
                           static_cast<long long>(n),
                           static_cast<long long>(samples_beyond(n, 0.9)),
                           static_cast<long long>(kMinTailSamples)));
}

std::string strf(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
