// Tests of the benchmark's own logic: metric names, self time, the
// percentile rule, and the seed-derived inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nnr::sched::CellKey;

std::set<std::string> json_names(const std::string& section) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const std::size_t begin = all.find("\"" + section + "\"");
  const std::size_t end = all.find(']', begin);
  std::set<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  const std::string body = all.substr(begin, end - begin);
  for (std::sregex_iterator it(body.begin(), body.end(), name_re), stop; it != stop; ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

std::set<std::string> def_names(const std::vector<MetricDef>& defs) {
  std::set<std::string> names;
  for (const MetricDef& d : defs) names.insert(d.name);
  return names;
}

TEST(MetricNames, MatchTheNameRule) {
  const std::regex rule("[A-Za-z0-9_.-]+");
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(std::regex_match(d.name, rule)) << d.name;
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(std::regex_match(d.unit, std::regex("[A-Za-z0-9_/%.-]{1,16}")))
          << d.unit;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, AreUniqueAndMatchBenchmarkJson) {
  const auto e2e = def_names(end_to_end_metrics());
  const auto layer = def_names(per_layer_metrics());
  EXPECT_EQ(e2e.size(), end_to_end_metrics().size());
  EXPECT_EQ(layer.size(), per_layer_metrics().size());
  EXPECT_EQ(json_names("end_to_end"), e2e);
  EXPECT_EQ(json_names("per_layer"), layer);
  // BENCHMARK.json gates a subset of the workloads; each must exist here.
  for (const std::string& name : json_names("workloads")) {
    EXPECT_NE(find_workload(name), nullptr) << name;
  }
}

Span span(std::int64_t id, std::int64_t parent, std::int64_t b, std::int64_t e) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = b;
  s.end_ns = e;
  return s;
}

TEST(SelfTime, NestedChildrenSubtractOnlyOnce) {
  // root [0,100) > child [10,50) > grandchild [20,30): the grandchild is
  // inside the child, so the root loses 40, the child 10.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 50),
                                   span(3, 2, 20, 30)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  // Two concurrent workers under one batch span: [10,50) and [30,70)
  // cover 60 of the parent's 100, not 80; a third child sticking out of
  // the parent is clipped to it.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 50),
                                   span(3, 1, 30, 70), span(4, 1, 90, 130)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTime, TotalsByName) {
  const std::vector<Span> spans = {
      [] { Span s = span(1, 0, 0, 10); s.name = "a"; return s; }(),
      [] { Span s = span(2, 1, 2, 4); s.name = "b"; return s; }(),
      [] { Span s = span(3, 1, 5, 9); s.name = "b"; return s; }()};
  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("a").self_ns, 4);
  EXPECT_EQ(totals.at("b").count, 2);
  EXPECT_EQ(totals.at("b").total_ns, 6);
}

TEST(Percentiles, TailRuleKeepsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10);
  EXPECT_TRUE(tail_ok(100, 0.9));
  EXPECT_FALSE(tail_ok(99, 0.9));
  EXPECT_EQ(min_samples_for(0.9), 100);
  EXPECT_EQ(min_samples_for(0.99), 1000);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 0.5), 50);
  EXPECT_EQ(percentile(v, 0.9), 90);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [](double x) { return x > 90; }),
            samples_beyond(100, 0.9));
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentiles, ResultJsonCarriesEveryMetricWithItsUnit) {
  const std::string json =
      result_json(true, 3, 0, end_to_end_metrics(), {{"setup_s", 0.25}});
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0), 0u);
  for (const MetricDef& d : end_to_end_metrics()) {
    EXPECT_NE(json.find("\"" + d.name + "\": {\"value\": "), std::string::npos);
  }
  EXPECT_NE(json.find("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"), std::string::npos);
}

class Inputs : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pin_environment();
    tasks_ = new std::deque<nnr::core::Task>(make_tasks());
  }
  static void TearDownTestSuite() { delete tasks_; }

  static std::vector<CellKey> training_keys(const char* name, std::uint64_t seed) {
    const nnr::sched::StudyPlan plan = training_plan(*find_workload(name), *tasks_, seed);
    return plan_keys({&plan});
  }
  static std::vector<CellKey> replay_keys(std::uint64_t seed) {
    const auto plans = replay_plans(*tasks_, seed);
    return plan_keys({&plans[0], &plans[1]});
  }
  static std::vector<CellKey> fill_keys(std::uint64_t seed, std::uint64_t pass) {
    const nnr::sched::StudyPlan plan = fill_plan(*tasks_, seed, pass);
    return plan_keys({&plan});
  }
  static bool disjoint(const std::vector<CellKey>& a, const std::vector<CellKey>& b) {
    for (const CellKey& k : a) {
      if (std::find(b.begin(), b.end(), k) != b.end()) return false;
    }
    return true;
  }

  static std::deque<nnr::core::Task>* tasks_;
};
std::deque<nnr::core::Task>* Inputs::tasks_ = nullptr;

TEST_F(Inputs, SameSeedGivesSameGridKeysAndPassOrder) {
  for (const char* w : {"train_nondet", "train_det"}) {
    EXPECT_EQ(training_keys(w, 7), training_keys(w, 7));
  }
  EXPECT_EQ(replay_keys(7), replay_keys(7));
  for (std::uint64_t pass = 0; pass < 4; ++pass) {
    EXPECT_EQ(fill_keys(7, pass), fill_keys(7, pass));
    EXPECT_EQ(replay_table2_first(7, pass), replay_table2_first(7, pass));
  }
  // The pass order is not constant: over a few passes both orders occur.
  std::set<bool> orders;
  for (std::uint64_t pass = 0; pass < 16; ++pass) orders.insert(replay_table2_first(7, pass));
  EXPECT_EQ(orders.size(), 2u);
}

TEST_F(Inputs, DifferentSeedsGiveDisjointCacheKeys) {
  EXPECT_TRUE(disjoint(replay_keys(1), replay_keys(2)));
  EXPECT_TRUE(disjoint(fill_keys(1, 0), fill_keys(2, 0)));
  // Each fill pass has fresh keys, and never reuses the replay's.
  EXPECT_TRUE(disjoint(fill_keys(1, 0), fill_keys(1, 1)));
  EXPECT_TRUE(disjoint(fill_keys(1, 0), replay_keys(1)));
  EXPECT_TRUE(disjoint(training_keys("train_nondet", 1), training_keys("train_nondet", 2)));
}

TEST_F(Inputs, GridShapes) {
  // Training: 2:1 SmallCNN+BN to ResNet-18 replicates, ResNet cells first.
  const nnr::sched::StudyPlan plan = training_plan(*find_workload("train_nondet"), *tasks_, 1);
  std::int64_t small = 0, resnet = 0;
  for (const auto& cell : plan.cells()) {
    (cell.job.dataset == &(*tasks_)[kSmallCnn].dataset ? small : resnet) += cell.replicates;
  }
  EXPECT_EQ(small, 2 * resnet);
  EXPECT_EQ(plan.cells().front().job.dataset, &(*tasks_)[kResnet].dataset);
  // Replay: 6 of the batch's 21 cells recur, as fig1's recur in table2.
  const auto plans = replay_plans(*tasks_, 1);
  EXPECT_EQ(plans[0].cells().size() + plans[1].cells().size(), 21u);
  std::vector<CellKey> keys = replay_keys(1);
  std::sort(keys.begin(), keys.end(), [](const CellKey& a, const CellKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  });
  const auto unique = std::unique(keys.begin(), keys.end()) - keys.begin();
  EXPECT_EQ(static_cast<std::size_t>(unique),
            static_cast<std::size_t>(plans[1].total_replicates()));
  // Fill passes never repeat a key inside a pass (no coalescing).
  std::vector<CellKey> fill = fill_keys(3, 0);
  const std::size_t n = fill.size();
  std::sort(fill.begin(), fill.end(), [](const CellKey& a, const CellKey& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  });
  EXPECT_EQ(static_cast<std::size_t>(std::unique(fill.begin(), fill.end()) - fill.begin()), n);
}

}  // namespace
}  // namespace perfbench
