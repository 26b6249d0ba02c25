#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "hw/device.h"
#include "rng/generator.h"

extern char** environ;

namespace perfbench {

using nnr::core::NoiseVariant;
using nnr::core::Task;
using nnr::sched::StudyPlan;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train_nondet", WorkloadKind::kTraining,
       "default kernels: every GEMM takes kShardedShuffled, so the "
       "seed-loop GEMM dominates training",
       "tensor.gemm_nt.*, nn.*, opt.*, data.*, core.*",
       "sched.cache.*, serialize.*, net.*, nnr_cached.*",
       {NoiseVariant::kAlgoPlusImpl, NoiseVariant::kImpl}, 0},
      {"train_det", WorkloadKind::kTraining,
       "deterministic kernels: GEMMs take the blocked engine, leaving "
       "im2col, col2im and transposes the largest share",
       "tensor.im2col/col2im/transpose, nn.*, opt.*, data.*, core.*",
       "tensor.gemm_nt shuffled path, sched.cache.*, serialize.*, net.*, "
       "nnr_cached.*",
       {NoiseVariant::kControl, NoiseVariant::kAlgo}, 0},
      {"cache_replay", WorkloadKind::kCacheReplay,
       "warm replay of a fig1+table2-like batch from one daemon: GET, "
       "decode, validate or coalesce, no training",
       "sched.run_batch, sched.coalesced_frac, sched.cache.load_hit_*, "
       "serialize.decode/validate, net.*, nnr_cached.*",
       "tensor.*, nn.*, opt.*, data.*, core.*, sched.cache.store_*",
       {},
       1},
      // Not gated in BENCHMARK.json: every replicate's PUT creates, writes
      // and renames a file in the shard's directory, so its timings follow
      // the host filesystem's metadata latency, which moved the run median
      // by about 20% between runs on a 4-vCPU VM. Run it by name for the
      // write-path per-layer metrics (--trace 1).
      {"cache_fill", WorkloadKind::kCacheFill,
       "cold passes into a two-shard tier: load-miss, claim, load, memo "
       "run, store, release per replicate",
       "sched.cache.load_miss/try_claim/store/release, sched.shard.*, "
       "serialize.encode/validate, net.*, nnr_cached.*",
       "tensor.*, nn.*, opt.*, data.*, core.*, sched.cache.load_hit_*",
       {},
       2},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int worker_threads(const Workload& w) {
  const unsigned hc = std::thread::hardware_concurrency();
  const int width = std::min(4, hc == 0 ? 1 : static_cast<int>(hc));
  return std::max(1, width - w.daemons);
}

void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "NNR_", 4) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("NNR_TRAIN_N", std::to_string(kTrainN).c_str(), 1);
  ::setenv("NNR_TEST_N", std::to_string(kTestN).c_str(), 1);
  ::setenv("NNR_EPOCHS", std::to_string(kEpochs).c_str(), 1);
}

std::deque<Task> make_tasks() {
  std::deque<Task> tasks;
  for (const char* id : {"smallcnn_bn", "resnet18_c10"}) {
    const nnr::core::TaskInfo* info = nnr::core::find_task(id);
    if (info == nullptr) throw std::logic_error(std::string("no task ") + id);
    tasks.push_back(info->make());
  }
  return tasks;
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t base_seed(std::uint64_t seed) noexcept {
  return mix64(seed ^ 0x7065726662656e63ull);  // "perfbenc"
}

namespace {

std::int64_t replicates_for(std::size_t task, bool cache) {
  if (task == kSmallCnn) {
    return cache ? kCacheSmallCnnReplicates : kTrainSmallCnnReplicates;
  }
  return cache ? kCacheResnetReplicates : kTrainResnetReplicates;
}

void add_cache_cells(StudyPlan& plan, const Task& task, std::size_t index,
                     const std::vector<nnr::hw::DeviceSpec>& devices,
                     std::uint64_t cell_seed) {
  for (const nnr::hw::DeviceSpec& device : devices) {
    for (const NoiseVariant v : nnr::sched::observed_variants()) {
      nnr::sched::Cell& cell =
          plan.add_cell(task, v, device, replicates_for(index, true));
      cell.job.base_seed = cell_seed;
      cell.runner_id = kMemoRunnerId;
    }
  }
}

}  // namespace

StudyPlan training_plan(const Workload& w, const std::deque<Task>& tasks,
                        std::uint64_t seed) {
  StudyPlan plan(w.name);
  for (const std::size_t t : {kResnet, kSmallCnn}) {
    for (const NoiseVariant v : w.variants) {
      nnr::sched::Cell& cell =
          plan.add_cell(tasks[t], v, nnr::hw::v100(), replicates_for(t, false));
      cell.job.base_seed = base_seed(seed);
    }
  }
  return plan;
}

std::vector<StudyPlan> replay_plans(const std::deque<Task>& tasks,
                                    std::uint64_t seed) {
  using nnr::hw::p100;
  using nnr::hw::rtx5000;
  using nnr::hw::v100;
  std::vector<StudyPlan> plans;
  plans.emplace_back("fig1_like");
  add_cache_cells(plans.back(), tasks[kSmallCnn], kSmallCnn, {v100()},
                  base_seed(seed));
  add_cache_cells(plans.back(), tasks[kResnet], kResnet, {v100()},
                  base_seed(seed));
  plans.emplace_back("table2_like");
  add_cache_cells(plans.back(), tasks[kSmallCnn], kSmallCnn,
                  {p100(), rtx5000(), v100()}, base_seed(seed));
  add_cache_cells(plans.back(), tasks[kResnet], kResnet, {p100(), v100()},
                  base_seed(seed));
  return plans;
}

bool replay_table2_first(std::uint64_t seed, std::uint64_t pass) noexcept {
  return (mix64(base_seed(seed) ^ mix64(pass + 1)) & 1u) != 0;
}

StudyPlan fill_plan(const std::deque<Task>& tasks, std::uint64_t seed,
                    std::uint64_t pass) {
  const std::uint64_t pass_seed = mix64(base_seed(seed) + mix64(pass));
  StudyPlan grid("fill_grid");
  for (const std::size_t t : {kSmallCnn, kResnet}) {
    add_cache_cells(grid, tasks[t], t, {nnr::hw::v100(), nnr::hw::p100()},
                    pass_seed);
  }
  std::vector<std::uint32_t> order(grid.cells().size());
  nnr::rng::Generator gen(pass_seed, /*stream=*/0x66696c6cull);  // "fill"
  gen.permutation(order);
  StudyPlan plan("fill_pass_" + std::to_string(pass));
  for (const std::uint32_t i : order) {
    // Cells reference the caller's tasks, never the temporary grid.
    plan.cells().push_back(grid.cells()[i]);
  }
  return plan;
}

std::vector<nnr::sched::CellKey> plan_keys(
    const std::vector<const StudyPlan*>& plans) {
  std::vector<nnr::sched::CellKey> keys;
  for (const StudyPlan* plan : plans) {
    for (const nnr::sched::Cell& cell : plan->cells()) {
      for (std::int64_t r = 0; r < cell.replicates; ++r) {
        keys.push_back(nnr::sched::cell_key(cell, cell.ids_for(r)));
      }
    }
  }
  return keys;
}

}  // namespace perfbench
