// Declarative experiment grids: the paper's apparatus is a grid of
// (task x device x noise-variant x replicate) cells, and a StudyPlan makes
// that grid a first-class object — named cells over owned tasks — instead of
// ad-hoc loops inside each bench main(). Plans are consumed by the cell
// scheduler (sched/scheduler.h) — singly via run_plan or batched via
// run_batch — which flattens the (cell, replicate) grid onto the shared
// runtime::ThreadPool and serves replicates from the content-addressed
// cache backend (sched/cache_backend.h) when one is configured.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/tasks.h"
#include "core/trainer.h"
#include "hw/device.h"

namespace nnr::sched {

/// One cell of a study: a fully specified TrainJob plus its replicate
/// schedule and the string identities that feed the content-addressed cache
/// key (sched/cell_key.h).
struct Cell {
  std::string id;         // unique label within the plan (progress, tables)
  std::string task_name;  // display name for table rows
  /// Content identity of (dataset, model factory). Factories are opaque
  /// std::functions, so this string is the caching contract: two cells with
  /// the same task_id MUST train the same model on the same data. Everything
  /// else that shapes the result (recipe, variant/toggles, device, seeds,
  /// warm start) is hashed structurally from `job`.
  std::string task_id;
  /// "" = the recipe's SGD (the paper's setting, cacheable). A cell that
  /// sets job.make_optimizer must also name it here or it is uncacheable.
  std::string optimizer_id;
  /// "" = core::train_replicate. A cell that sets `runner` must name it here
  /// (including any config baked into the closure, e.g. "dist_ring_w4") or
  /// it is uncacheable.
  std::string runner_id;
  core::TrainJob job;
  std::int64_t replicates = 0;
  /// Optional factorial schedule: replicate r trains with explicit_ids[r]
  /// instead of the diagonal {r, r}. Size must equal `replicates` when set.
  std::vector<core::ReplicateIds> explicit_ids;
  /// Optional custom trainer (e.g. the distributed data-parallel one).
  std::function<core::RunResult(const core::TrainJob&, core::ReplicateIds)>
      runner;

  /// True when the cell's content is fully described by its key inputs:
  /// a non-empty task_id, and named optimizer/runner overrides (if any).
  [[nodiscard]] bool cacheable() const noexcept {
    return !task_id.empty() && (job.make_optimizer == nullptr || !optimizer_id.empty()) &&
           (runner == nullptr || !runner_id.empty());
  }

  /// Trains one replicate of this cell: `runner` when set, else
  /// core::train_replicate.
  [[nodiscard]] core::RunResult train(core::ReplicateIds ids) const {
    return runner ? runner(job, ids) : core::train_replicate(job, ids);
  }

  /// Replicate ids for index r: explicit_ids[r] when scheduled factorially,
  /// else the diagonal {r, r} (identical to core::train_replicate(job, r)).
  [[nodiscard]] core::ReplicateIds ids_for(std::int64_t r) const {
    if (!explicit_ids.empty()) {
      return explicit_ids[static_cast<std::size_t>(r)];
    }
    const auto u = static_cast<std::uint64_t>(r);
    return core::ReplicateIds{u, u};
  }
};

class StudyPlan {
 public:
  explicit StudyPlan(std::string name) : name_(std::move(name)) {}

  // Move-only: cells point into the owned-task storage, and a copy's cells
  // would silently alias the source plan's tasks. Moving a deque preserves
  // element addresses, so moves are safe.
  StudyPlan(StudyPlan&&) = default;
  StudyPlan& operator=(StudyPlan&&) = default;
  StudyPlan(const StudyPlan&) = delete;
  StudyPlan& operator=(const StudyPlan&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Takes ownership of `task` so cells can reference it for the plan's
  /// lifetime (storage is address-stable; cells hold pointers into the
  /// task's dataset).
  core::Task& own_task(core::Task task) {
    tasks_.push_back(std::move(task));
    return tasks_.back();
  }

  /// Adds one (task, variant, device) cell. `replicates` <= 0 uses the task
  /// preset. The task must outlive the plan's runs — pass plan-owned tasks
  /// (own_task) or longer-lived ones.
  Cell& add_cell(const core::Task& task, core::NoiseVariant variant,
                 const hw::DeviceSpec& device, std::int64_t replicates = 0);

  /// Adds a fully custom job (probe experiments: toggle overrides, custom
  /// batch sizes, warm starts). `task_id` is the cache identity of the
  /// job's (dataset, model factory) — see Cell::task_id.
  Cell& add_job(std::string id, std::string task_id, core::TrainJob job,
                std::int64_t replicates);

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::vector<Cell>& cells() noexcept { return cells_; }

  [[nodiscard]] std::int64_t total_replicates() const noexcept {
    std::int64_t n = 0;
    for (const Cell& c : cells_) n += c.replicates;
    return n;
  }

 private:
  std::string name_;
  std::deque<core::Task> tasks_;  // deque: stable addresses across growth
  std::vector<Cell> cells_;
};

/// The three observed variants in the paper's presentation order — shared by
/// the study registry and the bench layer.
[[nodiscard]] const std::vector<core::NoiseVariant>& observed_variants();

}  // namespace nnr::sched
