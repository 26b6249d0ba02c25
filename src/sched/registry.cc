#include "sched/registry.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "core/env.h"
#include "nn/zoo.h"
#include "opt/adam.h"
#include "opt/rmsprop.h"
#include "opt/sgd.h"

namespace nnr::sched {
namespace {

core::Task make_named(const char* id) {
  const core::TaskInfo* info = core::find_task(id);
  // The registry ids are compile-time constants in this file; a miss is a
  // programming error, surfaced loudly rather than as a null deref.
  if (info == nullptr) {
    throw std::logic_error(std::string("unknown named task: ") + id);
  }
  return info->make();
}

/// (task x variant) block over the observed variants, one device.
void add_observed(StudyPlan& plan, const core::Task& task,
                  const hw::DeviceSpec& device,
                  std::int64_t replicates = 0) {
  for (const core::NoiseVariant v : observed_variants()) {
    plan.add_cell(task, v, device, replicates);
  }
}

StudyPlan fig1_plan() {
  StudyPlan plan("fig1");
  std::vector<hw::DeviceSpec> devices = {hw::v100()};
  if (core::env_int("NNR_APPENDIX", 0) != 0) {
    devices.push_back(hw::p100());     // Appendix Fig. 9
    devices.push_back(hw::rtx5000());  // Appendix Fig. 10
  }
  std::vector<const core::Task*> tasks;
  for (const char* id :
       {"smallcnn", "resnet18_c10", "resnet18_c100", "resnet50_in"}) {
    tasks.push_back(&plan.own_task(make_named(id)));
  }
  for (const hw::DeviceSpec& device : devices) {
    const bool include_imagenet = device.name == "V100";
    for (const core::Task* task : tasks) {
      if (!include_imagenet && task->name == "ResNet50 ImageNet") continue;
      add_observed(plan, *task, device);
    }
  }
  return plan;
}

StudyPlan fig2_plan() {
  StudyPlan plan("fig2");
  add_observed(plan, plan.own_task(make_named("smallcnn")), hw::v100());
  add_observed(plan, plan.own_task(make_named("smallcnn_bn")),
               hw::v100());
  return plan;
}

StudyPlan fig4_plan() {
  StudyPlan plan("fig4");
  add_observed(plan, plan.own_task(make_named("resnet18_c10")),
               hw::v100());
  add_observed(plan, plan.own_task(make_named("resnet18_c100")),
               hw::v100());
  return plan;
}

StudyPlan fig5_plan() {
  StudyPlan plan("fig5");
  const core::Task& task = plan.own_task(make_named("resnet18_c100"));
  for (const hw::DeviceSpec& device : hw::all_devices()) {
    if (device.name == "T4") continue;  // paper Fig. 5 omits T4
    add_observed(plan, task, device);
  }
  return plan;
}

StudyPlan table2_plan() {
  StudyPlan plan("table2");
  const std::vector<hw::DeviceSpec> devices = {hw::p100(), hw::rtx5000(),
                                               hw::v100()};
  std::vector<const core::Task*> tasks;
  for (const char* id : {"smallcnn", "resnet18_c10", "resnet18_c100"}) {
    tasks.push_back(&plan.own_task(make_named(id)));
  }
  for (const hw::DeviceSpec& device : devices) {
    for (const core::Task* task : tasks) add_observed(plan, *task, device);
  }
  add_observed(plan, plan.own_task(make_named("resnet50_in")),
               hw::v100());
  return plan;
}

StudyPlan architecture_plan() {
  StudyPlan plan("ablation_architecture");
  for (const char* id :
       {"smallcnn", "smallcnn_bn", "vgg", "resnet18_c10", "mobilenet"}) {
    add_observed(plan, plan.own_task(make_named(id)), hw::v100());
  }
  return plan;
}

StudyPlan calibration_plan() {
  StudyPlan plan("ablation_calibration");
  add_observed(plan, plan.own_task(make_named("resnet18_c10")),
               hw::v100());
  return plan;
}

StudyPlan churn_concentration_plan() {
  StudyPlan plan("ablation_churn_concentration");
  add_observed(plan, plan.own_task(make_named("resnet18_c10")),
               hw::v100());
  return plan;
}

StudyPlan churn_reduction_plan() {
  StudyPlan plan("ablation_churn_reduction");
  const core::Scale scale = core::resolve_scale(
      /*replicates=*/10, /*epochs=*/10, /*train_n=*/1024, /*test_n=*/512);
  core::Task task = make_named("smallcnn_bn");
  task.recipe.epochs = scale.epochs;
  add_observed(plan, plan.own_task(std::move(task)), hw::v100(),
               scale.replicates);
  return plan;
}

StudyPlan model_design_norm_plan() {
  StudyPlan plan("ablation_model_design_norm");
  const std::pair<const char*, nn::NormKind> norm_cells[] = {
      {"none", nn::NormKind::kNone},
      {"BatchNorm", nn::NormKind::kBatch},
      {"GroupNorm", nn::NormKind::kGroup},
  };
  for (const auto& [label, kind] : norm_cells) {
    core::Task task = make_named("smallcnn");
    task.name = label;
    const nn::NormKind k = kind;
    task.make_model = [k] { return nn::small_cnn_norm(10, k); };
    add_observed(plan, plan.own_task(std::move(task)), hw::v100());
  }
  return plan;
}

StudyPlan model_design_act_plan() {
  StudyPlan plan("ablation_model_design_act");
  const std::pair<const char*, nn::ActKind> act_cells[] = {
      {"ReLU", nn::ActKind::kReLU},
      {"SiLU", nn::ActKind::kSiLU},
      {"GELU", nn::ActKind::kGELU},
      {"Tanh", nn::ActKind::kTanh},
  };
  for (const auto& [label, kind] : act_cells) {
    core::Task task = make_named("smallcnn");
    task.name = label;
    const nn::ActKind k = kind;
    task.make_model = [k] { return nn::small_cnn_activation(10, k); };
    plan.add_cell(plan.own_task(std::move(task)), core::NoiseVariant::kImpl,
                  hw::v100());
  }
  return plan;
}

StudyPlan optimizer_plan() {
  StudyPlan plan("ablation_optimizer");
  const core::Task& task = plan.own_task(make_named("smallcnn_bn"));
  for (const OptimizerDef& def : optimizer_registry()) {
    for (const core::NoiseVariant variant :
         {core::NoiseVariant::kAlgo, core::NoiseVariant::kImpl}) {
      Cell& cell = plan.add_cell(task, variant, hw::v100());
      cell.id = def.label + " / " + std::string(core::variant_name(variant));
      cell.task_name = def.label;
      cell.optimizer_id = def.label;
      cell.job.make_optimizer = def.make;
      cell.job.recipe.base_lr *= def.lr_scale;
    }
  }
  return plan;
}

StudyPlan algo_channels_plan() {
  StudyPlan plan("ablation_algo_channels");
  const std::int64_t replicates = core::env_int("NNR_REPLICATES", 10);
  const core::Task& task =
      plan.own_task(make_named("smallcnn_dropout"));

  core::ChannelToggles base;  // all pinned
  base.mode = hw::DeterminismMode::kDeterministic;
  struct ChannelCell {
    const char* label;
    bool core::ChannelToggles::* channel;
  };
  const ChannelCell channel_cells[] = {
      {"init only", &core::ChannelToggles::init_varies},
      {"shuffle only", &core::ChannelToggles::shuffle_varies},
      {"augment only", &core::ChannelToggles::augment_varies},
      {"dropout only", &core::ChannelToggles::dropout_varies},
  };
  const auto add_toggle_cell = [&](const char* label,
                                   core::ChannelToggles toggles) {
    core::TrainJob job = task.job(core::NoiseVariant::kAlgo, hw::v100());
    job.toggles_override = toggles;
    Cell& cell = plan.add_job(label, task.dataset.name + "|" + task.name,
                              std::move(job), replicates);
    cell.task_name = label;
  };
  for (const ChannelCell& c : channel_cells) {
    core::ChannelToggles t = base;
    t.*(c.channel) = true;
    add_toggle_cell(c.label, t);
  }
  {
    core::ChannelToggles t = base;
    t.init_varies = t.shuffle_varies = t.augment_varies = t.dropout_varies =
        true;
    add_toggle_cell("ALL (= ALGO)", t);
  }
  add_toggle_cell("NONE (= CONTROL)", base);
  return plan;
}

StudyPlan variance_decomposition_plan() {
  StudyPlan plan("ablation_variance_decomposition");
  core::Task task = make_named("resnet18_c10");
  const core::Scale scale = core::resolve_scale(
      task.default_replicates, task.recipe.epochs, /*train_n=*/512,
      /*test_n=*/256);
  task.recipe.epochs = scale.epochs;
  add_observed(plan, plan.own_task(std::move(task)), hw::v100(),
               scale.replicates);
  return plan;
}

}  // namespace

const std::vector<StudyDef>& study_registry() {
  static const std::vector<StudyDef> registry = {
      {"fig1",
       "Fig. 1: stddev/churn/L2 by noise source and task (V100; "
       "NNR_APPENDIX=1 adds P100+RTX5000)",
       fig1_plan},
      {"fig2", "Fig. 2: SmallCNN with vs without BatchNorm (V100)",
       fig2_plan},
      {"fig4", "Fig. 4: per-class variance amplification (V100)", fig4_plan},
      {"fig5", "Fig. 5: divergence across accelerators (ResNet18 CIFAR-100*)",
       fig5_plan},
      {"table2",
       "Table 2: accuracy +/- stddev per (hardware, task, variant)",
       table2_plan},
      {"ablation_architecture",
       "Stability across five architecture families (V100)",
       architecture_plan},
      {"ablation_calibration",
       "ECE / confidence-gap spread per noise variant (ResNet18, V100)",
       calibration_plan},
      {"ablation_churn_concentration",
       "Per-example flip-rate concentration (ResNet18 CIFAR-10, V100)",
       churn_concentration_plan},
      {"ablation_churn_reduction",
       "K-ensembling / warm-start mitigation base grid (SmallCNN+BN, V100)",
       churn_reduction_plan},
      {"ablation_model_design_norm",
       "Normalization kind vs noise (SmallCNN, V100)", model_design_norm_plan},
      {"ablation_model_design_act",
       "Activation smoothness under IMPL noise (SmallCNN, V100)",
       model_design_act_plan},
      {"ablation_optimizer",
       "Optimizer choice as a noise modulator (SmallCNN+BN, V100)",
       optimizer_plan},
      {"ablation_algo_channels",
       "ALGO noise decomposed into its four channels (V100)",
       algo_channels_plan},
      {"ablation_variance_decomposition",
       "Per-variant error-bar grid for the factorial ANOVA bench "
       "(ResNet18, V100)",
       variance_decomposition_plan},
  };
  return registry;
}

const StudyDef* find_study(std::string_view id) {
  for (const StudyDef& def : study_registry()) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

const std::vector<OptimizerDef>& optimizer_registry() {
  static const std::vector<OptimizerDef> registry = {
      {"sgd", "SGD",
       [](std::vector<nn::Param*> p) {
         return std::make_unique<opt::Sgd>(std::move(p));
       },
       1.0F},
      {"sgd_momentum", "SGD+momentum",
       [](std::vector<nn::Param*> p) {
         return std::make_unique<opt::Sgd>(std::move(p), 0.9F);
       },
       1.0F},
      {"adam", "Adam",
       [](std::vector<nn::Param*> p) {
         return std::make_unique<opt::Adam>(std::move(p));
       },
       0.5F},
      {"rmsprop", "RMSProp",
       [](std::vector<nn::Param*> p) {
         return std::make_unique<opt::RmsProp>(std::move(p));
       },
       0.5F},
  };
  return registry;
}

const OptimizerDef* find_optimizer(std::string_view id) {
  for (const OptimizerDef& def : optimizer_registry()) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

}  // namespace nnr::sched
