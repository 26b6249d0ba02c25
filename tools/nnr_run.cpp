// nnr_run: command-line stability-study runner.
//
// The figure/table benches reproduce the paper's exact cells; this tool lets
// a downstream user compose their own cell — task x device x noise variant x
// replicate count — or run any named study from the registry (batched:
// `--study fig1,table2` schedules every queued grid as ONE claim pass with
// duplicate cells coalesced), and get the paper's stability measures
// (accuracy mean/stddev, predictive churn, normalized L2 weight distance)
// as an aligned table or CSV. Every training mode (single-cell, --study,
// and --submit's warm replay) builds StudyPlans and hands them to one
// runner, run_plans, so a cache — a directory (--cache-dir /
// NNR_CACHE_DIR) or a remote nnr_cached daemon (--cache-url /
// NNR_CACHE_URL) — makes repeated runs near-free: replicates are served
// bit-for-bit identical to fresh training.
//
// Flags are declared once in kFlags below; the parser dispatches from that
// table and --help is generated from it, so usage text and accepted flags
// cannot drift apart. Parsing settles the mode and resolves every study
// and optimizer name, so a bad command line fails before anything runs.
// The full reference lives in docs/nnr_run.md.
//
// Usage:
//   nnr_run --task smallcnn_bn --device V100 --variant impl --replicates 10
//   nnr_run --study table2 --cache-dir /tmp/nnr-cache
//   nnr_run --study fig1,fig2,table2 --cache-url tcp://cachehost:9776
//   nnr_run --study fig2 --cache-url tcp://shard0:9776,tcp://shard1:9777
//   nnr_run --submit fig2,table2 --cache-url tcp://cachehost:9776
//   nnr_run --worker --cache-url tcp://cachehost:9776
//   nnr_run --list
//   nnr_run --task resnet18_c100 --all-variants --csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/table.h"
#include "core/tasks.h"
#include "hw/device.h"
#include "report/exporter.h"
#include "runtime/parse_int.h"
#include "runtime/thread_pool.h"
#include "sched/cache_backend.h"
#include "sched/fleet_client.h"
#include "sched/registry.h"
#include "sched/remote_cache_backend.h"
#include "sched/sharded_cache_backend.h"
#include "sched/scheduler.h"
#include "sched/study_plan.h"

namespace {

using namespace nnr;

std::optional<core::NoiseVariant> parse_variant(const std::string& name) {
  if (name == "algo+impl") return core::NoiseVariant::kAlgoPlusImpl;
  if (name == "algo") return core::NoiseVariant::kAlgo;
  if (name == "impl") return core::NoiseVariant::kImpl;
  if (name == "control") return core::NoiseVariant::kControl;
  return std::nullopt;
}

void print_catalog() {
  std::printf("tasks:\n");
  for (const core::TaskInfo& info : core::task_registry()) {
    std::printf("  %-18s %s\n", info.id.c_str(), info.description.c_str());
  }
  std::printf("devices:\n");
  for (const hw::DeviceSpec& device : hw::all_devices()) {
    std::printf("  %s\n", device.name.c_str());
  }
  std::printf("variants: algo+impl, algo, impl, control\n");
  std::string optimizers;
  for (const sched::OptimizerDef& def : sched::optimizer_registry()) {
    optimizers += (optimizers.empty() ? "" : ", ") + def.id;
  }
  std::printf("optimizers: %s (default: the recipe's SGD)\n",
              optimizers.c_str());
  std::printf("studies:\n");
  for (const sched::StudyDef& def : sched::study_registry()) {
    std::printf("  %-32s %s\n", def.id.c_str(), def.description.c_str());
  }
}

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "nnr_run: %s\n(run with --list for the catalog, "
               "--help for usage)\n", message);
  std::exit(2);
}

/// Strict integer flag parse: the whole value must be one decimal integer
/// ("--threads 4x" or "--threads abc" is an error, never a silent 0).
std::int64_t parse_int_flag(const char* flag, const char* text) {
  const auto parsed = runtime::parse_int_strict(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "nnr_run: %s needs an integer, got '%s' (trailing junk and "
                 "out-of-range values are rejected)\n",
                 flag, text);
    std::exit(2);
  }
  return *parsed;
}

/// A count flag (--replicates, --epochs): a strict integer of at least 1, so
/// "0" or "-3" is an error, never a silent fallback to the preset.
std::int64_t parse_count_flag(const char* flag, const char* text) {
  const std::int64_t count = parse_int_flag(flag, text);
  if (count < 1) {
    std::fprintf(stderr, "nnr_run: %s must be at least 1, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return count;
}

/// Sanity cap for --threads (a pool cap, not a budget — far above any real
/// machine, far below int overflow).
constexpr std::int64_t kMaxThreadsFlag = 1 << 20;

/// What a run does. Every mode but single-cell has its own flag; flags of
/// two modes never mix (select_mode).
enum class Mode { kSingleCell, kStudy, kSubmit, kWorker, kGc };

struct Options {
  Mode mode = Mode::kSingleCell;
  bool single_cell_flags_used = false;  // other modes reject these
  std::string task = "smallcnn_bn";
  std::string device = "V100";
  std::vector<core::NoiseVariant> variants = {
      core::NoiseVariant::kAlgoPlusImpl};
  const sched::OptimizerDef* optimizer = nullptr;  // nullptr = recipe SGD
  std::int64_t replicates = 0;  // 0 = not given: task preset
  std::int64_t epochs = 0;      // 0 = not given: recipe preset
  /// The studies --study, --study-file or --submit name, resolved against
  /// the registry as they are parsed.
  std::vector<const sched::StudyDef*> studies;
  std::string study_file;  // --study-file; appended to studies after --study
  int threads = 0;
  bool csv = false;
  bool json = false;
  std::string out_dir;  // empty = no file export
  /// Seeded from NNR_CACHE_DIR / NNR_CACHE_URL / NNR_CACHE_BUDGET; the
  /// flags override. `url` is a single url or a comma-separated shard map.
  sched::CacheConfig cache;
  bool cache_url_from_flag = false;  // first --cache-url replaces the env
                                     // seed; later ones append shards
};

// ---------------------------------------------------------------------------
// The flag table: one entry per flag, driving BOTH the parser and --help.
// ---------------------------------------------------------------------------

void print_usage();

/// The first mode flag picks the run's mode; a flag of another mode is a
/// usage error, whichever two modes they are.
void select_mode(Options& o, Mode mode) {
  if (o.mode != Mode::kSingleCell && o.mode != mode) {
    usage_error("--study/--study-file, --submit, --worker and --cache-gc "
                "select different modes; run each as its own command");
  }
  o.mode = mode;
}

/// Resolves the comma-separated study names in `list` against the registry
/// and appends them; an unknown name is a usage error.
void add_studies(Options& o, const std::string& list) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!name.empty()) {
      const sched::StudyDef* def = sched::find_study(name);
      if (def == nullptr) {
        usage_error(("unknown study '" + name + "'").c_str());
      }
      o.studies.push_back(def);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

enum class Section { kSingle, kStudy, kFleet, kMaint, kShared };

struct FlagSpec {
  const char* name;
  const char* value;  // value placeholder, nullptr for boolean flags
  Section section;
  const char* help;   // '\n' starts an aligned continuation line
  void (*apply)(Options&, const char* value);
};

const FlagSpec kFlags[] = {
    {"--task", "NAME", Section::kSingle,
     "a named task; see --list (default: smallcnn_bn)",
     [](Options& o, const char* v) { o.task = v; }},
    {"--device", "NAME", Section::kSingle,
     "P100 | V100 | RTX5000 | \"RTX5000 TC\" | T4 | TPUv2",
     [](Options& o, const char* v) { o.device = v; }},
    {"--variant", "NAME", Section::kSingle,
     "algo+impl | algo | impl | control",
     [](Options& o, const char* v) {
       const auto variant = parse_variant(v);
       if (!variant) usage_error("unknown --variant");
       o.variants = {*variant};
     }},
    {"--all-variants", nullptr, Section::kSingle,
     "run algo+impl, algo, and impl (overrides --variant)",
     [](Options& o, const char*) {
       o.variants = {core::NoiseVariant::kAlgoPlusImpl,
                     core::NoiseVariant::kAlgo, core::NoiseVariant::kImpl};
     }},
    {"--optimizer", "NAME", Section::kSingle,
     "sgd | sgd_momentum | adam | rmsprop\n"
     "(default: the recipe's SGD setting)",
     [](Options& o, const char* v) {
       o.optimizer = sched::find_optimizer(v);
       if (o.optimizer == nullptr) usage_error("unknown --optimizer");
     }},
    {"--replicates", "N", Section::kSingle,
     "independent trainings per cell, N >= 1 (default: task\n"
     "preset)",
     [](Options& o, const char* v) {
       o.replicates = parse_count_flag("--replicates", v);
     }},
    {"--epochs", "N", Section::kSingle,
     "override the task recipe's epoch count, N >= 1",
     [](Options& o, const char* v) {
       o.epochs = parse_count_flag("--epochs", v);
     }},
    {"--study", "LIST", Section::kStudy,
     "run named studies (a full figure/table grid each); see\n"
     "--list. Comma-separate to batch: the queued grids are\n"
     "scheduled as ONE pass and cells shared between studies\n"
     "train once (coalesced), not once per study",
     [](Options& o, const char* v) {
       select_mode(o, Mode::kStudy);
       add_studies(o, v);
     }},
    {"--study-file", "FILE", Section::kStudy,
     "read study names from FILE (one per line or comma-\n"
     "separated; '#' comments), appended to --study's list",
     [](Options& o, const char* v) {
       select_mode(o, Mode::kStudy);
       o.study_file = v;
     }},
    {"--submit", "LIST", Section::kFleet,
     "fleet coordinator: enqueue the named studies' cells on\n"
     "the daemon's durable work queue (requires --cache-url),\n"
     "print fleet-wide progress until workers drain it, then\n"
     "replay the studies locally (warm) for the usual tables",
     [](Options& o, const char* v) {
       select_mode(o, Mode::kSubmit);
       add_studies(o, v);
     }},
    {"--worker", nullptr, Section::kFleet,
     "fleet worker: FETCH -> train -> store -> REPORT loop\n"
     "against the daemon's queue (requires --cache-url).\n"
     "Stateless; join or kill workers mid-study freely — a\n"
     "dead worker's cell returns to the queue via its lease",
     [](Options& o, const char*) { select_mode(o, Mode::kWorker); }},
    {"--cache-gc", nullptr, Section::kMaint,
     "garbage-collect the cache and exit: sweep orphaned .tmp\n"
     "files (dead writers) and unheld lockfiles, evict to the\n"
     "byte budget (LRU: an entry's mtime is its last store or\n"
     "hit). Works on a directory (--cache-dir) or a daemon\n"
     "(--cache-url)",
     [](Options& o, const char*) { select_mode(o, Mode::kGc); }},
    {"--cache-dir", "DIR", Section::kShared,
     "persistent replicate cache; replicates already on disk\n"
     "are loaded (bitwise identical to retraining) instead of\n"
     "trained. Defaults to NNR_CACHE_DIR when set. Concurrent\n"
     "runs sharing one cache dir partition the grid via\n"
     "per-key advisory locks (each cell trains exactly once)",
     [](Options& o, const char* v) { o.cache.dir = v; }},
    {"--cache-url", "URL", Section::kShared,
     "remote replicate cache: tcp://host:port of an nnr_cached\n"
     "daemon, or a comma-separated shard map (tcp://a:1,tcp://b:2)\n"
     "routing each key to one shard by rendezvous hashing. Repeat\n"
     "the flag to append shards. Defaults to NNR_CACHE_URL when\n"
     "set; overrides --cache-dir. Claims become TTL leases\n"
     "(heartbeat-renewed, released on death); an unreachable\n"
     "daemon or shard degrades to local recompute, never an error",
     [](Options& o, const char* v) {
       if (o.cache_url_from_flag && !o.cache.url.empty()) {
         o.cache.url += ',';  // repeated flag = grow the shard map
         o.cache.url += v;
       } else {
         o.cache.url = v;  // first flag occurrence beats the env seed
         o.cache_url_from_flag = true;
       }
     }},
    {"--cache-budget", "N", Section::kShared,
     "cache byte budget; a store that pushes the cache over N\n"
     "bytes evicts least-recently-used entries (never one\n"
     "that is mid-training). Defaults to NNR_CACHE_BUDGET;\n"
     "0 = unlimited. Filesystem caches only: with --cache-url\n"
     "the budget belongs to the daemon (nnr_cached --budget)",
     [](Options& o, const char* v) {
       o.cache.budget = parse_int_flag("--cache-budget", v);
       if (o.cache.budget < 0) {
         usage_error("--cache-budget must be >= 0 (bytes; 0 = unlimited)");
       }
     }},
    {"--threads", "N", Section::kShared,
     "cap host-thread fan-out for this run. Precedence:\n"
     "this flag > NNR_THREADS > hardware concurrency.\n"
     "0 (default) = full shared-pool width; negative = serial",
     [](Options& o, const char* v) {
       const std::int64_t threads = parse_int_flag("--threads", v);
       // Strict parsing must not be undone by a silent int64 -> int
       // truncation (2^32 would become 0 = "full pool").
       if (threads > kMaxThreadsFlag || threads < -kMaxThreadsFlag) {
         usage_error("--threads is out of range");
       }
       o.threads = static_cast<int>(threads);
     }},
    {"--csv", nullptr, Section::kShared,
     "emit CSV instead of the aligned table",
     [](Options& o, const char*) { o.csv = true; }},
    {"--json", nullptr, Section::kShared,
     "emit JSON instead of the aligned table",
     [](Options& o, const char*) { o.json = true; }},
    {"--out", "DIR", Section::kShared,
     "also write the table as .txt/.csv/.json under DIR",
     [](Options& o, const char* v) { o.out_dir = v; }},
    {"--list", nullptr, Section::kShared,
     "print available tasks/devices/variants/studies and exit",
     [](Options&, const char*) {
       print_catalog();
       std::exit(0);
     }},
    {"--help", nullptr, Section::kShared, "this text",
     [](Options&, const char*) {
       print_usage();
       std::exit(0);
     }},
};

constexpr const char* kUsageFooter = R"(
Environment: NNR_CACHE_DIR / NNR_CACHE_URL / NNR_CACHE_BUDGET /
NNR_CACHE_LEASE_MS seed the cache flags above (NNR_CACHE_URL accepts the
same comma-separated shard map as --cache-url); NNR_THREADS sizes the
shared pool; NNR_REPLICATES / NNR_EPOCHS / NNR_TRAIN_N / NNR_QUICK scale
studies. In fleet modes every retry (PING, SUBMIT, PUT, REPORT) runs for
up to one lease TTL, paced by the cache client's reconnect backoff
(NNR_CACHE_BACKOFF_MS). Full reference: docs/nnr_run.md.

Integer flags are parsed strictly: trailing junk ("--threads 4x") is an
error, never a silent zero. Cache stats and progress go to stderr
([cache] hits=... / [study] 5/36 cells, ...), never into tables, so
warm-cache reruns emit byte-identical artifacts. A run killed mid-study is
resumable: rerun with the same cache and only the missing replicates
train, with bitwise-identical final tables.
)";

const char* section_title(Section section) {
  switch (section) {
    case Section::kSingle: return "Single-cell mode (default):";
    case Section::kStudy: return "Study mode:";
    case Section::kFleet: return "Fleet mode (one coordinator, N workers):";
    case Section::kMaint: return "Cache maintenance mode:";
    case Section::kShared: return "Shared:";
  }
  return "";
}

/// --help text, generated from kFlags so it cannot drift from the parser.
void print_usage() {
  std::printf("nnr_run: stability-study runner\n");
  for (const Section section : {Section::kSingle, Section::kStudy,
                                Section::kFleet, Section::kMaint,
                                Section::kShared}) {
    std::printf("\n%s\n", section_title(section));
    for (const FlagSpec& spec : kFlags) {
      if (spec.section != section) continue;
      std::string label = spec.name;
      if (spec.value != nullptr) {
        label += ' ';
        label += spec.value;
      }
      const char* help = spec.help;
      bool first = true;
      while (help != nullptr) {
        const char* newline = std::strchr(help, '\n');
        const std::string line =
            newline != nullptr ? std::string(help, newline) : std::string(help);
        if (first) {
          std::printf("  %-17s %s\n", label.c_str(), line.c_str());
          first = false;
        } else {
          std::printf("  %-17s %s\n", "", line.c_str());
        }
        help = newline != nullptr ? newline + 1 : nullptr;
      }
    }
  }
  std::printf("%s", kUsageFooter);
}

const FlagSpec* find_flag(const char* arg) {
  for (const FlagSpec& spec : kFlags) {
    if (std::strcmp(spec.name, arg) == 0) return &spec;
  }
  return nullptr;
}

/// Appends the studies listed in `path` (one per line or comma-separated;
/// blank lines and '#' comments skipped).
void load_study_file(Options& opts, const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("--study-file: cannot open the file");
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    // Trim whitespace around the whole line; names themselves have none.
    std::string trimmed;
    for (const char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') trimmed += c;
    }
    add_studies(opts, trimmed);
  }
}

Options parse_args(int argc, char** argv) {
  Options opts;
  opts.cache = sched::cache_config_from_env();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-h") == 0) arg = "--help";
    const FlagSpec* spec = find_flag(arg);
    if (spec == nullptr) usage_error("unknown flag");
    const char* value = nullptr;
    if (spec->value != nullptr) {
      if (i + 1 >= argc) usage_error("flag needs a value");
      value = argv[++i];
    }
    if (spec->section == Section::kSingle) opts.single_cell_flags_used = true;
    spec->apply(opts, value);
  }
  if (!opts.study_file.empty()) load_study_file(opts, opts.study_file);
  if (opts.single_cell_flags_used && opts.mode != Mode::kSingleCell) {
    usage_error("--task/--device/--variant/--all-variants/--optimizer/"
                "--replicates/--epochs are single-cell flags; studies run "
                "fixed registry grids (scale them via NNR_* env knobs)");
  }
  if ((opts.mode == Mode::kStudy || opts.mode == Mode::kSubmit) &&
      opts.studies.empty()) {
    usage_error("--study/--study-file/--submit named no studies (empty "
                "list or a file of only comments)");
  }
  if ((opts.mode == Mode::kSubmit || opts.mode == Mode::kWorker) &&
      opts.cache.url.empty()) {
    usage_error("--submit/--worker need the daemon's queue: pass "
                "--cache-url/NNR_CACHE_URL (tcp://host:port of nnr_cached)");
  }
  return opts;
}

/// Runs a cache-backend factory; the std::invalid_argument it throws for a
/// malformed --cache-url is a usage error.
template <typename Factory>
auto build_cache(Factory factory) {
  try {
    return factory();
  } catch (const std::invalid_argument& error) {
    usage_error(error.what());
  }
}

/// The daemon tier the --cache-url map names. The fleet modes need the
/// concrete tier for its queue shard (shard 0), not just the CacheBackend
/// interface.
std::unique_ptr<sched::ShardedCacheBackend> make_tier(const Options& opts) {
  return build_cache([&] {
    return sched::make_sharded_cache_backend(
        sched::split_cache_urls(opts.cache.url));
  });
}

int run_cache_gc(const Options& opts) {
  const auto backend =
      build_cache([&] { return sched::make_cache_backend(opts.cache); });
  if (backend == nullptr) {
    usage_error("--cache-gc needs a cache (--cache-dir/NNR_CACHE_DIR or "
                "--cache-url/NNR_CACHE_URL)");
  }
  const sched::GcStats gc = backend->gc();
  std::printf("[cache-gc] target=%s removed_tmp=%lld removed_locks=%lld "
              "evicted=%lld evicted_bytes=%lld entries=%lld bytes=%lld\n",
              backend->describe().c_str(),
              static_cast<long long>(gc.removed_tmp),
              static_cast<long long>(gc.removed_locks),
              static_cast<long long>(gc.evicted),
              static_cast<long long>(gc.evicted_bytes),
              static_cast<long long>(gc.entries),
              static_cast<long long>(gc.bytes));
  return 0;
}

core::TextTable study_table(const sched::StudyPlan& plan,
                            const sched::StudyResult& result) {
  core::TextTable table({"Task", "Device", "Variant", "Mean acc %",
                         "STDDEV(Acc) %", "Churn %", "L2 Norm"});
  for (std::size_t c = 0; c < plan.cells().size(); ++c) {
    const sched::Cell& cell = plan.cells()[c];
    const core::VariantSummary summary = core::summarize(result.cells[c]);
    table.add_row({cell.task_name, cell.job.device.name,
                   std::string(core::variant_name(cell.job.variant)),
                   core::fmt_float(summary.accuracy_pct(), 2),
                   core::fmt_float(summary.accuracy_stddev_pct(), 3),
                   core::fmt_float(summary.churn_pct(), 2),
                   core::fmt_float(summary.mean_l2, 4)});
  }
  return table;
}

/// Single-cell mode as a one-plan batch: one cell per requested variant,
/// scheduled and cached exactly like the registry studies.
std::vector<sched::StudyPlan> single_cell_plans(const Options& opts) {
  const core::TaskInfo* info = core::find_task(opts.task);
  if (info == nullptr) usage_error("unknown --task");
  const std::optional<hw::DeviceSpec> device = hw::find_device(opts.device);
  if (!device) usage_error("unknown --device");

  core::Task task = info->make();
  if (opts.epochs > 0) task.recipe.epochs = opts.epochs;
  std::vector<sched::StudyPlan> plans;
  sched::StudyPlan& plan = plans.emplace_back("nnr_run_" + opts.task);
  const core::Task& owned = plan.own_task(std::move(task));
  for (const core::NoiseVariant variant : opts.variants) {
    sched::Cell& cell =
        plan.add_cell(owned, variant, *device, opts.replicates);
    if (opts.optimizer != nullptr) {
      cell.job.make_optimizer = opts.optimizer->make;
      cell.optimizer_id = opts.optimizer->id;
    }
  }
  return plans;
}

std::vector<sched::StudyPlan> study_plans(const Options& opts) {
  std::vector<sched::StudyPlan> plans;
  plans.reserve(opts.studies.size());
  for (const sched::StudyDef* def : opts.studies) {
    plans.push_back(def->make_plan());
  }
  return plans;
}

/// Runs `plans` as one batch against the options' cache, prints and exports
/// one table per plan, then reports the batch on stderr.
int run_plans(const Options& opts, const std::vector<sched::StudyPlan>& plans) {
  const auto backend =
      build_cache([&] { return sched::make_cache_backend(opts.cache); });
  sched::RunOptions run_opts;
  run_opts.threads = opts.threads;
  run_opts.progress = true;
  run_opts.cache = backend.get();
  std::vector<const sched::StudyPlan*> batch_plans;
  for (const sched::StudyPlan& plan : plans) batch_plans.push_back(&plan);
  const sched::BatchResult batch = sched::run_batch(batch_plans, run_opts);

  report::Exporter exporter(opts.out_dir);
  const auto emit = [&](const core::TextTable& table,
                        const std::string& experiment,
                        const std::string& slug, const std::string& title) {
    if (opts.csv) {
      std::printf("%s", table.render_csv().c_str());
    } else if (opts.json) {
      std::printf("%s", report::render_json(table).c_str());
    } else {
      std::printf("%s\n", table.render(title).c_str());
    }
    exporter.write(table, experiment, slug, title);
  };
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const sched::StudyPlan& plan = plans[p];
    const sched::StudyResult& result = batch.studies[p];
    if (opts.mode == Mode::kSingleCell) {
      emit(study_table(plan, result), "nnr_run", opts.task,
           "nnr_run stability summary (" +
               std::to_string(plan.cells().front().replicates) +
               " replicates)");
      continue;
    }
    emit(study_table(plan, result), "study", plan.name(),
         "study " + plan.name() + " (" + opts.studies[p]->description + ")");
    if (backend != nullptr) {
      // Cache activity as its own artifact — kept out of the study table so
      // cold- and warm-cache runs emit byte-identical study files.
      exporter.write(sched::cache_stats_table(result), "cache_stats",
                     plan.name(), "replicate cache activity: " + plan.name());
    }
  }

  if (plans.size() > 1) {
    std::fprintf(stderr, "[batch] studies=%zu coalesced=%lld deferred=%lld\n",
                 plans.size(), static_cast<long long>(batch.coalesced),
                 static_cast<long long>(batch.deferred));
  }
  // Batch-wide totals in the one grep-able shape scripts rely on.
  if (backend != nullptr) {
    std::fprintf(stderr, "[cache] %s\n",
                 sched::cache_stats_line(batch.cache, batch.trained).c_str());
  }
  std::fprintf(stderr, "[study] trained=%lld\n",
               static_cast<long long>(batch.trained));
  return 0;
}

/// Fleet coordinator: once the daemon answers, submit the studies' plans to
/// its work queue, wait for the fleet to drain it, then replay the same
/// plans locally against the (now warm) cache so the emitted tables are
/// byte-identical to a plain `--study` run.
int run_submit(const Options& opts) {
  // Caveat documented in docs/nnr_run.md: the submit-time "already cached"
  // dedupe only sees the queue shard's directory, so keys owned by other
  // shards enqueue and are then reported kServed by the first worker to
  // fetch them.
  auto tier = make_tier(opts);
  sched::RemoteCacheBackend& queue = tier->shard(0);
  // Unlike caching (where an unreachable daemon degrades to local compute),
  // the coordinator's entire job is the daemon — fail loudly up front. It
  // retries within one lease TTL first, so one lost frame on a flaky link
  // (or a daemon a beat behind its supervisor) doesn't abort the wave
  // before it starts.
  if (!sched::retry_within_lease(queue, [&] { return queue.ping(); })) {
    std::fprintf(stderr, "nnr_run: --submit: no nnr_cached daemon at %s\n",
                 queue.describe().c_str());
    return 1;
  }
  // A shard map whose slots share one cache directory would let one daemon
  // answer for another shard's keys — wave results would depend on which
  // client connected first. Refuse to start the wave.
  if (const auto violation = tier->verify_disjoint()) {
    std::fprintf(stderr, "nnr_run: --submit: %s\n", violation->c_str());
    return 1;
  }
  const std::vector<sched::StudyPlan> plans = study_plans(opts);
  const auto drained = sched::fleet_submit_and_wait(queue, plans);
  if (!drained.has_value()) return 1;
  if (drained->failed > 0) {
    std::fprintf(stderr,
                 "[fleet] %llu cells failed %u attempts and will train "
                 "locally in the replay\n",
                 static_cast<unsigned long long>(drained->failed),
                 sched::FleetQueue::kMaxAttempts);
  }
  tier.reset();  // the replay opens its own connections
  return run_plans(opts, plans);
}

int run_worker(const Options& opts) {
  auto tier = make_tier(opts);
  if (const auto violation = tier->verify_disjoint()) {
    std::fprintf(stderr, "nnr_run: --worker: %s\n", violation->c_str());
    return 1;
  }
  const sched::FleetWorkerSummary summary = sched::fleet_run_worker(*tier);
  std::fprintf(stderr, "[worker] fetched=%lld trained=%lld served=%lld "
               "failed=%lld\n",
               static_cast<long long>(summary.fetched),
               static_cast<long long>(summary.trained),
               static_cast<long long>(summary.served),
               static_cast<long long>(summary.failed));
  return summary.failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  // --threads N (> 0) must win over NNR_THREADS (flag > env > hardware), and
  // a RunOptions cap can only narrow the shared pool — so widen the pool
  // itself, before anything runs on it.
  if (opts.threads > 0) runtime::ThreadPool::set_global_threads(opts.threads);
  switch (opts.mode) {
    case Mode::kSingleCell: return run_plans(opts, single_cell_plans(opts));
    case Mode::kStudy: return run_plans(opts, study_plans(opts));
    case Mode::kSubmit: return run_submit(opts);
    case Mode::kWorker: return run_worker(opts);
    case Mode::kGc: return run_cache_gc(opts);
  }
  return 2;
}
