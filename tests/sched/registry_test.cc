// The named-study registry: every plan must materialize, carry unique cell
// ids, and keep its cells cacheable — the property that lets shared cells
// (fig1 and table2 overlap on V100) train once per cache.
#include "sched/registry.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/cell_key.h"

namespace nnr::sched {
namespace {

TEST(StudyRegistry, FindStudyResolvesKnownIds) {
  ASSERT_NE(find_study("fig1"), nullptr);
  ASSERT_NE(find_study("table2"), nullptr);
  EXPECT_EQ(find_study("fig999"), nullptr);
  EXPECT_EQ(find_study(""), nullptr);
}

TEST(StudyRegistry, EveryPlanMaterializesWithUniqueCacheableCells) {
  for (const StudyDef& def : study_registry()) {
    SCOPED_TRACE(def.id);
    EXPECT_FALSE(def.description.empty());
    const StudyPlan plan = def.make_plan();
    EXPECT_EQ(plan.name(), def.id);
    ASSERT_FALSE(plan.cells().empty());
    std::set<std::string> ids;
    for (const Cell& cell : plan.cells()) {
      EXPECT_TRUE(ids.insert(cell.id).second) << "duplicate cell " << cell.id;
      EXPECT_GT(cell.replicates, 0);
      EXPECT_NE(cell.job.dataset, nullptr);
      EXPECT_TRUE(static_cast<bool>(cell.job.make_model));
      EXPECT_TRUE(cell.cacheable())
          << "registry cell " << cell.id << " is not cacheable";
    }
  }
}

TEST(StudyRegistry, SharedCellsHashToTheSameKey) {
  // fig1 and table2 both contain (SmallCNN, V100, ALGO+IMPL): the content
  // keys must collide on purpose so the cache trains the cell once.
  const StudyPlan fig1 = find_study("fig1")->make_plan();
  const StudyPlan table2 = find_study("table2")->make_plan();
  const auto find_cell = [](const StudyPlan& plan,
                            const std::string& id) -> const Cell* {
    for (const Cell& cell : plan.cells()) {
      if (cell.id == id) return &cell;
    }
    return nullptr;
  };
  const std::string id = "SmallCNN CIFAR-10 / V100 / ALGO+IMPL";
  const Cell* a = find_cell(fig1, id);
  const Cell* b = find_cell(table2, id);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(cell_key(*a, a->ids_for(0)), cell_key(*b, b->ids_for(0)));
  EXPECT_NE(cell_key(*a, a->ids_for(0)), cell_key(*a, a->ids_for(1)));
}

TEST(OptimizerRegistry, NamesAreStableCacheIdentities) {
  // Both names feed Cell::optimizer_id: renaming one orphans every cache
  // entry keyed on it. --optimizer resolves ids only.
  std::vector<std::string> ids;
  std::vector<std::string> labels;
  for (const OptimizerDef& def : optimizer_registry()) {
    ids.push_back(def.id);
    labels.push_back(def.label);
    EXPECT_EQ(find_optimizer(def.id), &def);
    EXPECT_TRUE(static_cast<bool>(def.make));
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"sgd", "sgd_momentum", "adam",
                                           "rmsprop"}));
  EXPECT_EQ(labels, (std::vector<std::string>{"SGD", "SGD+momentum", "Adam",
                                              "RMSProp"}));
  EXPECT_EQ(find_optimizer("SGD"), nullptr);
  EXPECT_EQ(find_optimizer("no-such"), nullptr);
}

TEST(StudyRegistry, StudyIdsAreUnique) {
  std::set<std::string> ids;
  for (const StudyDef& def : study_registry()) {
    EXPECT_TRUE(ids.insert(def.id).second) << "duplicate study " << def.id;
  }
}

}  // namespace
}  // namespace nnr::sched
