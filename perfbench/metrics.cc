#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"replicates_per_s", "1/s", true},
      {"replicate_ms_p50", "ms", false},
      {"replicate_ms_p90", "ms", false},
      {"peak_rss_mb", "MiB", false},
      {"setup_s", "s", false},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"tensor.gemm_nt.gflops", "GFLOP/s", true},
        {"tensor.gemm_nt.ms_per_step", "ms", false},
        {"tensor.im2col.ms_per_step", "ms", false},
        {"tensor.col2im.ms_per_step", "ms", false},
        {"tensor.transpose.ms_per_step", "ms", false},
        {"tensor.gemm_nt.gflop_per_step", "GFLOP", false},
        {"tensor.bytes_moved_per_step", "MiB", false},
    };
    for (const char* kind :
         {"Conv2D", "BatchNorm2D", "ReLU", "MaxPool2x2", "Flatten", "Dense",
          "BasicBlock", "GlobalAvgPool"}) {
      d.push_back({std::string("nn.") + kind + ".fwd_ms", "ms", false});
      d.push_back({std::string("nn.") + kind + ".bwd_ms", "ms", false});
    }
    const std::vector<MetricDef> rest = {
        {"nn.loss_ms", "ms", false},
        {"nn.zero_grads_ms", "ms", false},
        {"opt.step_ms", "ms", false},
        {"data.shuffle_ms", "ms", false},
        {"data.gather_ms", "ms", false},
        {"data.augment_ms", "ms", false},
        {"core.init_ms", "ms", false},
        {"core.eval_ms", "ms", false},
        {"core.replicate_ms", "ms", false},
        {"sched.run_batch.self_ms_per_replicate", "ms", false},
        {"sched.coalesced_frac", "ratio", true},
        {"sched.cache.load_hit_ms_p50", "ms", false},
        {"sched.cache.load_hit_ms_p99", "ms", false},
        {"sched.cache.hit_ratio", "ratio", true},
        {"sched.cache.load_miss_ms_p50", "ms", false},
        {"sched.cache.try_claim_ms_p50", "ms", false},
        {"sched.cache.store_ms_p50", "ms", false},
        {"sched.cache.store_ms_p99", "ms", false},
        {"sched.cache.release_ms_p50", "ms", false},
        {"sched.cache.rpcs_per_replicate", "count", false},
        {"sched.shard.max_over_mean", "ratio", false},
        {"serialize.decode_ms", "ms", false},
        {"serialize.encode_ms", "ms", false},
        {"serialize.validate_ms", "ms", false},
        {"serialize.entry_kb", "KiB", false},
        {"net.ping_ms_p50", "ms", false},
        {"net.connect_attempts", "count", false},
        {"nnr_cached.cpu_ms_per_op", "ms", false},
        {"nnr_cached.busy_frac", "ratio", false},
        {"trace.overhead_frac", "ratio", false},
        {"trace.unattributed_frac", "ratio", false},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

/// 0-based index of the nearest-rank q-th percentile among n samples.
std::int64_t rank_index(std::int64_t n, double q) {
  const auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::int64_t>(rank, 1, n) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(samples.size());
  const auto k = static_cast<std::size_t>(rank_index(n, q));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) return 0;
  return n - 1 - rank_index(n, q);
}

std::int64_t min_samples_for(double q) {
  std::int64_t n = 1;
  while (!tail_ok(n, q)) ++n;
  return n;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<MetricDef>& defs,
                        const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + def.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           def.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Fnv64::add(std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
}

}  // namespace perfbench
