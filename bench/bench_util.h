// Shared plumbing for the table/figure reproduction benches.
//
// Every bench builds its experiment grid as a sched::StudyPlan (usually via
// the named-study registry) and runs it through bench::run_study, which
// schedules the flattened (cell, replicate) grid on the shared
// runtime::ThreadPool and serves replicates from the persistent cache when
// NNR_CACHE_DIR (filesystem) or NNR_CACHE_URL (nnr_cached daemon) is set.
// Thread sizing follows one precedence everywhere: --threads flag (tools
// resize the pool before running) > NNR_THREADS > hardware concurrency.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/study.h"
#include "core/table.h"
#include "core/tasks.h"
#include "report/exporter.h"
#include "sched/cache_backend.h"
#include "sched/registry.h"
#include "sched/scheduler.h"
#include "sched/study_plan.h"

namespace nnr::bench {

/// The three observed variants in the paper's presentation order.
inline const std::vector<core::NoiseVariant>& observed_variants() {
  return sched::observed_variants();
}

/// Process-wide cache backend configured from NNR_CACHE_URL /
/// NNR_CACHE_DIR / NNR_CACHE_BUDGET (nullptr when neither source is set).
inline sched::CacheBackend* cache() {
  static std::unique_ptr<sched::CacheBackend> backend =
      sched::make_cache_backend(sched::cache_config_from_env());
  return backend.get();
}

/// Runs `plan` on the shared host pool. Cache activity and periodic
/// [study] progress lines are reported on stderr, never in the tables, so
/// a warm-cache rerun emits byte-identical artifacts (the cache-validity
/// contract). Interrupted benches are resumable: every completed replicate
/// is already durably keyed in the cache, so a rerun trains only the rest.
inline sched::StudyResult run_study(const sched::StudyPlan& plan) {
  sched::RunOptions opts;
  opts.progress = true;
  opts.cache = cache();
  sched::StudyResult result = sched::run_plan(plan, opts);
  if (cache() != nullptr) {
    std::fprintf(stderr, "[cache %s] %s\n", plan.name().c_str(),
                 sched::cache_stats_line(result.cache, result.trained).c_str());
  }
  return result;
}

/// Standard bench banner: what is being reproduced and at what scale.
inline void banner(const char* figure, const char* description) {
  std::printf("== %s ==\n%s\n", figure, description);
  std::printf(
      "(scaled reproduction: synthetic data + simulated accelerators; see "
      "DESIGN.md. Scale via NNR_REPLICATES/NNR_EPOCHS/NNR_TRAIN_N/NNR_QUICK; "
      "set NNR_CACHE_DIR to reuse replicates across benches)\n\n");
}

/// Process-wide exporter configured from NNR_OUT_DIR (no-op when unset).
inline report::Exporter& exporter() {
  static report::Exporter e = report::Exporter::from_env();
  return e;
}

/// Prints `table` to stdout and, when NNR_OUT_DIR is set, writes
/// `<experiment>_<slug>.{txt,csv,json}` plus an index.json entry. Every
/// bench table goes through here so a single env var turns a bench run into
/// plot-ready artifacts. Slugs may be raw display names — the exporter
/// sanitizes filenames uniformly.
inline void emit(const core::TextTable& table, const char* experiment,
                 const std::string& slug, const std::string& title = "") {
  std::printf("%s\n", table.render(title).c_str());
  exporter().write(table, experiment, slug, title);
}

}  // namespace nnr::bench
