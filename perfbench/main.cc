// perfbench: the repository's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list
//
// Runs one workload (workloads.h) for about S seconds of closed-loop work,
// checks its outputs, prints the metrics by name with their units, and ends
// with one JSON line: {"correct", "attempted", "failed", "metrics"}. An
// untraced run prints the end-to-end metrics; a traced run (--trace 1) is a
// separate run of the same workload and seed that prints the per-layer
// metrics. Exits non-zero when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.h"
#include "profiler/cost_model.h"
#include "profiler/network_desc.h"
#include "runtime/parse_int.h"
#include "trace.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1   (or --list)\n",
               why);
  std::exit(2);
}

std::int64_t int_flag(const char* flag, const char* value) {
  const auto v = nnr::runtime::parse_int_strict(value);
  if (!v.has_value()) usage((std::string(flag) + " needs an integer").c_str());
  return *v;
}

void list_workloads() {
  for (const Workload& w : workloads()) {
    std::printf("%s\n  why:       %s\n  exercises: %s\n  bypasses:  %s\n",
                w.name.c_str(), w.why.c_str(), w.exercises.c_str(),
                w.bypasses.c_str());
  }
}

/// The determinism-overhead line (derived, not gated): train_det's median
/// replicate time over train_nondet's, per task, as the paper's Fig. 8
/// plots it (100% = no overhead), beside the cost model's figure for the
/// nearest described network on Volta. Each training run records its
/// per-task medians; the line prints once both workloads have run.
void overhead_lines(const RunConfig& config, const RunOutput& out) {
  {
    std::ofstream rec(config.work_dir + "/p50-" + config.workload->name + ".txt");
    for (const auto& [task, ms] : out.task_p50_ms) rec << ms << ' ' << task << '\n';
  }
  const auto read = [&](const char* workload) {
    std::vector<std::pair<std::string, double>> rows;
    std::ifstream in(config.work_dir + "/p50-" + workload + ".txt");
    double ms = 0;
    std::string task;
    while (in >> ms && std::getline(in >> std::ws, task)) rows.emplace_back(task, ms);
    return rows;
  };
  const auto det = read("train_det");
  const auto nondet = read("train_nondet");
  if (det.size() != 2 || nondet.size() != 2) return;
  const nnr::profiler::NetworkDesc descs[2] = {nnr::profiler::medium_cnn_desc(3),
                                               nnr::profiler::resnet50_desc()};
  const char* desc_names[2] = {"medium_cnn_desc(3)", "resnet50_desc()"};
  for (std::size_t t = 0; t < 2; ++t) {
    const double model_pct =
        nnr::profiler::deterministic_overhead(descs[t], nnr::hw::GpuArch::kVolta)
            .normalized_pct();
    std::printf("determinism overhead %-20s measured %6.1f%% (train_det p50 / "
                "train_nondet p50)   cost model %s on Volta %6.1f%%\n",
                det[t].first.c_str(), 100.0 * det[t].second / nondet[t].second,
                desc_names[t], model_pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  std::int64_t seed = -1;
  std::int64_t seconds = -1;
  std::int64_t trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list_workloads();
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = int_flag("--seed", value);
    } else if (arg == "--seconds") {
      seconds = int_flag("--seconds", value);
    } else if (arg == "--trace") {
      trace = int_flag("--trace", value);
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  config.workload = find_workload(workload);
  if (config.workload == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (seed < 0) usage("--seed must be a non-negative integer");
  if (seconds < 1) usage("--seconds must be at least 1");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  config.seed = static_cast<std::uint64_t>(seed);
  config.seconds = static_cast<double>(seconds);
  config.trace = trace == 1;
  config.work_dir = ".bench_out";
  config.daemon_binary = NNR_CACHED_PATH;
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  pin_environment();
  const Workload& w = *config.workload;
  std::printf("perfbench workload=%s seed=%lld seconds=%lld trace=%lld threads=%d\n",
              w.name.c_str(), static_cast<long long>(seed),
              static_cast<long long>(seconds), static_cast<long long>(trace),
              worker_threads(w));
  std::printf("  why: %s\n", w.why.c_str());

  RunOutput out;
  try {
    out = w.kind == WorkloadKind::kTraining ? run_training(config) : run_cache(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  const std::vector<MetricDef>& defs =
      config.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricDef& def : defs) {
    const auto it = out.metrics.find(def.name);
    std::printf("  %-40s %14.6f %s\n", def.name.c_str(),
                it == out.metrics.end() ? 0.0 : it->second, def.unit.c_str());
  }
  std::printf("  %-40s %14.6f ratio (%lld/%lld)\n", "failed_frac",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  if (!out.digest.empty()) std::printf("  result_digest %s\n", out.digest.c_str());
  if (w.kind == WorkloadKind::kTraining && !config.trace) overhead_lines(config, out);
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n", result_json(correct, std::max<std::int64_t>(out.attempted, 1),
                                  out.failed, defs, out.metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
