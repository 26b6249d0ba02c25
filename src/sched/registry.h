// Named-study registry: every figure/table grid of the paper reproduction,
// declared once as a StudyPlan factory and shared by the bench binaries and
// `nnr_run --study NAME`, plus the optimizer catalog that `nnr_run
// --optimizer` and the ablation_optimizer grid share. A bench main()
// shrinks to "make_plan -> run -> format rows"; the CLI gets every study
// for free; and because plans are built from the same named tasks
// (core::task_registry) with the same environment knobs
// (NNR_REPLICATES/NNR_EPOCHS/NNR_QUICK/...), a cell shared by two studies
// — fig1 and table2 share most of their V100 cells — hashes to the same
// CellKey and trains exactly once per cache.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/study_plan.h"

namespace nnr::sched {

struct StudyDef {
  std::string id;           // e.g. "fig1", "table2"
  std::string description;  // one-line catalog entry
  std::function<StudyPlan()> make_plan;
};

/// All named studies in the paper's presentation order (figures, tables,
/// then ablations).
[[nodiscard]] const std::vector<StudyDef>& study_registry();

/// Lookup by id; nullptr when unknown.
[[nodiscard]] const StudyDef* find_study(std::string_view id);

/// An optimizer `nnr_run --optimizer` and the ablation_optimizer study
/// select. Both names are cache identities (Cell::optimizer_id): a
/// --optimizer cell keys on `id`, an ablation cell on `label`.
struct OptimizerDef {
  std::string id;     // --optimizer name, e.g. "sgd_momentum"
  std::string label;  // ablation row label, e.g. "SGD+momentum"
  core::OptimizerFactory make;
  /// The ablation's learning rate relative to the recipe's (adaptive rules
  /// run hotter); --optimizer keeps the recipe's rate.
  float lr_scale = 1.0F;
};

/// Every selectable optimizer, in catalog order.
[[nodiscard]] const std::vector<OptimizerDef>& optimizer_registry();

/// Lookup by id; nullptr when unknown.
[[nodiscard]] const OptimizerDef* find_optimizer(std::string_view id);

}  // namespace nnr::sched
