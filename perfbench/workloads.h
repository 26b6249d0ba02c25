// The benchmark's workloads: why each exists, which layers it drives, and
// the seed-derived inputs it hands the program (cell grids, cache keys,
// pass order). Everything here is a pure function of the workload and the
// seed, so the same seed gives the same inputs on every run.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/noise_variant.h"
#include "core/tasks.h"
#include "sched/cell_key.h"
#include "sched/study_plan.h"

namespace perfbench {

enum class WorkloadKind { kTraining, kCacheReplay, kCacheFill };

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kTraining;
  std::string why;        // one line; BENCHMARK.json carries the same text
  std::string exercises;  // per-layer metric families it drives
  std::string bypasses;   // per-layer metric families it leaves near 0
  /// Noise variants of the training cells (training workloads only).
  std::vector<nnr::core::NoiseVariant> variants;
  /// nnr_cached processes the workload talks to (cache workloads only).
  int daemons = 0;
};

/// Every workload perfbench can run. BENCHMARK.json gates the first
/// three; cache_fill runs by name only (see its entry).
[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

// ---- Fixed scale. Inherited NNR_* variables cannot change a workload:
// ---- pin_environment() removes them and pins these through the task
// ---- registry's own knobs.
inline constexpr std::int64_t kTrainN = 96;
inline constexpr std::int64_t kTestN = 64;
inline constexpr std::int64_t kEpochs = 1;

/// Replicates per cell. SmallCNN+BN cells take twice ResNet-18's so the two
/// models' latency clusters hold 2/3 and 1/3 of the samples: p50 lands
/// inside the SmallCNN cluster and p90 inside the ResNet one, never in the
/// gap between them.
inline constexpr std::int64_t kTrainSmallCnnReplicates = 8;
inline constexpr std::int64_t kTrainResnetReplicates = 4;
inline constexpr std::int64_t kCacheSmallCnnReplicates = 4;
inline constexpr std::int64_t kCacheResnetReplicates = 2;

/// Host threads T for a workload: at most the machine's width (capped at
/// 4), minus one per daemon, at least 1.
[[nodiscard]] int worker_threads(const Workload& w);

/// Removes every NNR_* variable from the environment, then pins
/// NNR_TRAIN_N / NNR_TEST_N / NNR_EPOCHS to the benchmark's scale.
void pin_environment();

/// The two tasks every workload uses, from core::task_registry() at the
/// pinned scale: [0] smallcnn_bn, [1] resnet18_c10. A deque, so cells can
/// point into the tasks while more are appended.
[[nodiscard]] std::deque<nnr::core::Task> make_tasks();
inline constexpr std::size_t kSmallCnn = 0;
inline constexpr std::size_t kResnet = 1;

/// Runner identity of the cache workloads' memo runner (part of the key).
inline constexpr const char* kMemoRunnerId = "perfbench.memo";

/// splitmix64 finalizer: the benchmark's only seed mixer.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Every cell's base_seed on the training and replay workloads.
[[nodiscard]] std::uint64_t base_seed(std::uint64_t seed) noexcept;

/// Training grid on V100: ResNet-18 cells first (longest first keeps the
/// batch's tail short), each under every variant of `w`. Cells carry no
/// runner; callers attach one.
[[nodiscard]] nnr::sched::StudyPlan training_plan(
    const Workload& w, const std::deque<nnr::core::Task>& tasks,
    std::uint64_t seed);

/// The warm-replay batch: a fig1-like plan (both tasks on V100) and a
/// table2-like plan (SmallCNN+BN on P100/RTX5000/V100, ResNet-18 on
/// P100/V100), each under the observed variants. Every fig1-like cell
/// recurs in the table2-like plan, as fig1's cells recur in table2, so 6 of
/// the batch's 21 cells are duplicates. Cells name the memo runner.
[[nodiscard]] std::vector<nnr::sched::StudyPlan> replay_plans(
    const std::deque<nnr::core::Task>& tasks, std::uint64_t seed);

/// Pass `pass` of the replay: true when the table2-like plan goes first
/// (which copy of a shared cell leads is drawn per pass).
[[nodiscard]] bool replay_table2_first(std::uint64_t seed,
                                       std::uint64_t pass) noexcept;

/// Cold-fill pass `pass`: both tasks on V100 and P100 under the observed
/// variants, with a base_seed fresh to this (seed, pass) so every key is
/// new, in a cell order drawn from the same pair. Cells name the memo
/// runner.
[[nodiscard]] nnr::sched::StudyPlan fill_plan(
    const std::deque<nnr::core::Task>& tasks, std::uint64_t seed,
    std::uint64_t pass);

/// Every (cell, replicate) key of `plans`, in grid order.
[[nodiscard]] std::vector<nnr::sched::CellKey> plan_keys(
    const std::vector<const nnr::sched::StudyPlan*>& plans);

}  // namespace perfbench
