// Metric vocabulary of the perf benchmark: the names, units and directions
// BENCHMARK.json declares, the percentile rule every latency obeys, and the
// one-line JSON result the benchmark prints last.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
};

/// The end-to-end metrics an untraced run prints (BENCHMARK.json
/// "end_to_end"), in print order.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// The per-layer metrics a traced run prints (BENCHMARK.json "per_layer").
/// Every traced run prints all of them; a layer a workload never reaches
/// reads 0, which is the work that workload did there.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Name rule shared with BENCHMARK.json: [A-Za-z0-9_.-]+, at most 64
/// characters, starting with a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Nearest-rank percentile of `samples` (q in (0, 1]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// How many of n samples rank strictly above the nearest-rank q-th
/// percentile. The tail rule: a percentile is reported only when at least
/// ten samples lie beyond it, so p90 needs n >= 100 and p99 n >= 1000.
[[nodiscard]] std::int64_t samples_beyond(std::int64_t n, double q);
inline constexpr std::int64_t kMinTailSamples = 10;
[[nodiscard]] inline bool tail_ok(std::int64_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}
/// Smallest sample count that satisfies the tail rule at q.
[[nodiscard]] std::int64_t min_samples_for(double q);

/// Values of one run, keyed by metric name.
using MetricValues = std::map<std::string, double>;

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}} over exactly `defs`.
/// A metric missing from `values` is printed as 0.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                      std::int64_t failed,
                                      const std::vector<MetricDef>& defs,
                                      const MetricValues& values);

/// 64-bit FNV-1a, the digest of RunResult bytes the benchmark prints.
class Fnv64 {
 public:
  void add(std::string_view bytes) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
