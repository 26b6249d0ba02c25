// Shared pieces of the workload runners (train_bench.cc, cache_bench.cc)
// and the entry points main.cc dispatches to.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "metrics.h"
#include "workloads.h"

namespace perfbench {

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;        // scratch space inside the checkout
  std::string daemon_binary;   // nnr_cached from the same build
};

struct RunOutput {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricValues metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first
  std::string digest;              // result_digest (hex)
  /// Per-task median replicate time (training workloads), for the
  /// determinism-overhead line.
  std::vector<std::pair<std::string, double>> task_p50_ms;
};

[[nodiscard]] RunOutput run_training(const RunConfig& config);
[[nodiscard]] RunOutput run_cache(const RunConfig& config);

/// Host speed, measured with a kernel of the benchmark's own. On a shared
/// 4-vCPU VM the same CPU-bound work ran up to 30% slower for tens of
/// seconds at a time (other tenants, clock boost), and every time the
/// benchmark reports moved with it. Timing a fixed kernel on T threads at
/// once, just before each batch, tracks that drift: the gated times are
/// scaled to what they read at the reference speed, and the raw times are
/// printed beside them. The kernel calls no program code, so a change to
/// the program cannot move it.
class SpeedProbe {
 public:
  explicit SpeedProbe(int threads) : threads_(threads) {}
  /// Measures once and returns the median of the last three measurements
  /// (each kReferenceMs over the median kernel time on the probe's
  /// threads): 1 at the reference speed, above 1 on a faster host. A time t
  /// measured at speed s reads t * s at the reference speed; a rate r reads
  /// r / s. The median of three smooths the probe's own noise and still
  /// follows drift that lasts longer than a few batches.
  [[nodiscard]] double speed();
  static constexpr double kReferenceMs = 1.0;

 private:
  int threads_;
  std::vector<double> history_;
};

/// Set-ups per run; setup_s is their median, so one slow set-up does not
/// move it.
inline constexpr int kSetups = 5;

/// Runs `setup` kSetups times and returns the median duration in seconds,
/// each scaled to the reference speed by a probe taken just before it. The
/// caller keeps the state of the last set-up (each call replaces it).
[[nodiscard]] double timed_setups(SpeedProbe probe,
                                  const std::function<void()>& setup);

/// Bitwise equality of two RunResults (every float by bit pattern), i.e.
/// equality of their serialized bytes under one key.
[[nodiscard]] bool same_bits(const nnr::core::RunResult& a,
                             const nnr::core::RunResult& b);

/// Latency samples in milliseconds, appended from pool workers.
class SampleSink {
 public:
  void add(std::size_t tag, double ms);
  /// Copies of the samples (every tag, and one tag).
  [[nodiscard]] std::vector<double> all() const;
  [[nodiscard]] std::vector<double> for_tag(std::size_t tag) const;
  [[nodiscard]] std::size_t size() const;
  /// Multiplies the samples added since the sink held `from` by `factor`.
  void scale_since(std::size_t from, double factor);
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::size_t, double>> samples_;
};

[[nodiscard]] inline double ms_between(std::int64_t begin_ns,
                                       std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// Totals over consecutive timed batches (one run_batch call each).
struct Phase {
  std::int64_t timed_ns = 0;
  std::int64_t replicates = 0;
  std::int64_t batches = 0;
  /// Replicates/s of each batch at the reference speed, in run order.
  std::vector<double> rates;

  /// One batch of `settled` replicates that took `ns` at host `speed`.
  void add_batch(std::int64_t ns, std::int64_t settled, double speed);
  /// Replicates per second over the whole phase, as measured.
  [[nodiscard]] double rate() const;
  Phase& operator+=(const Phase& other);
};

/// replicates_per_s: the median of the timed batches' rates at the
/// reference speed, so one batch slowed by the machine does not move it.
/// Notes the quartiles and the rate as measured.
void report_rate(const Phase& phase, RunOutput& out);

/// Fills the end-to-end latency metrics from `samples` (at the reference
/// speed) and records the sample count and tail depth in `out.notes`.
void report_latency(const std::vector<double>& samples, RunOutput& out);

/// printf into a std::string.
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
