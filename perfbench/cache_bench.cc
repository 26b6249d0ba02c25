// Cache workloads (cache_replay, cache_fill): a closed loop of T pool
// workers driving sched::run_batch against real nnr_cached processes from
// the same build. The scheduler's CacheBackend is wrapped: every verb it
// calls (and every claim release) is timed with two clock reads and added
// to its key's total, which is one replicate's latency sample. Traced runs
// also put a span around every call.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "proc.h"
#include "runtime/thread_pool.h"
#include "sched/fs_cache_backend.h"
#include "sched/remote_cache_backend.h"
#include "sched/scheduler.h"
#include "sched/sharded_cache_backend.h"
#include "serialize/run_result.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using nnr::core::RunResult;
using nnr::sched::CacheBackend;
using nnr::sched::CacheClaim;
using nnr::sched::CacheStats;
using nnr::sched::CellKey;
using nnr::sched::CellKeyHash;
using nnr::sched::StudyPlan;

enum Op : std::size_t { kLoadHit, kLoadMiss, kTryClaim, kStore, kRelease, kClaim, kOps };

/// The scheduler-facing wrapper over the real backend.
class TimedBackend final : public CacheBackend {
 public:
  TimedBackend(CacheBackend& inner, std::function<std::size_t(const CellKey&)> shard_of,
               std::function<bool(const CellKey&)> degraded)
      : inner_(inner), shard_of_(std::move(shard_of)), degraded_(std::move(degraded)) {}

  std::optional<RunResult> load(const CellKey& key, CacheStats* run,
                                bool count_miss) override {
    const std::int64_t t0 = now_ns();
    ScopedSpan span(tracer_, "sched.cache.load", batch_span_.load(), replicate_id(key));
    std::optional<RunResult> r = inner_.load(key, run, count_miss);
    span.end();
    record(r ? kLoadHit : kLoadMiss, key, t0, now_ns());
    return r;
  }

  bool store(const CellKey& key, const RunResult& result, CacheStats* run) override {
    const std::int64_t t0 = now_ns();
    ScopedSpan span(tracer_, "sched.cache.store", batch_span_.load(), replicate_id(key));
    const bool ok = inner_.store(key, result, run);
    span.end();
    record(kStore, key, t0, now_ns());
    if (!ok || degraded_(key)) failures_.fetch_add(1);
    return ok;
  }

  std::optional<CacheClaim> try_claim(const CellKey& key) override {
    const std::int64_t t0 = now_ns();
    ScopedSpan span(tracer_, "sched.cache.try_claim", batch_span_.load(), replicate_id(key));
    std::optional<CacheClaim> c = inner_.try_claim(key);
    span.end();
    record(kTryClaim, key, t0, now_ns());
    if (!c || degraded_(key)) failures_.fetch_add(1);
    return wrap(key, std::move(c));
  }

  std::optional<CacheClaim> claim(const CellKey& key) override {
    const std::int64_t t0 = now_ns();
    ScopedSpan span(tracer_, "sched.cache.claim", batch_span_.load(), replicate_id(key));
    std::optional<CacheClaim> c = inner_.claim(key);
    span.end();
    record(kClaim, key, t0, now_ns());
    return wrap(key, std::move(c));
  }

  nnr::sched::GcStats gc() override { return inner_.gc(); }
  CacheStats stats() const override { return inner_.stats(); }
  std::string describe() const override { return inner_.describe(); }

  /// Switches span recording on (tracer non-null) or off.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  void set_batch_span(std::int64_t id) { batch_span_.store(id); }

  /// Per-replicate latency samples (the summed calls of each key) since
  /// the last harvest; clears them.
  std::vector<double> harvest_replicate_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    out.reserve(key_ms_.size());
    for (const auto& [key, ms] : key_ms_) out.push_back(ms);
    key_ms_.clear();
    return out;
  }

  void reset_counters() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& v : op_ms_) v.clear();
    shard_ops_.clear();
    key_ms_.clear();
    rpcs_ = 0;
    failures_.store(0);
  }

  [[nodiscard]] std::vector<double> op_ms(Op op) const {
    std::lock_guard<std::mutex> lock(mu_);
    return op_ms_[op];
  }
  [[nodiscard]] std::int64_t rpcs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rpcs_;
  }
  [[nodiscard]] std::map<std::size_t, std::int64_t> shard_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shard_ops_;
  }
  /// Stores that returned false, refused or degraded claims.
  [[nodiscard]] std::int64_t failures() const { return failures_.load(); }

 private:
  /// Times the release of a claim handed to the scheduler.
  class TimedClaim final : public CacheClaim::Impl {
   public:
    TimedClaim(TimedBackend& owner, CellKey key, CacheClaim inner)
        : owner_(owner), key_(key), inner_(std::move(inner)) {}
    ~TimedClaim() override {
      const std::int64_t t0 = now_ns();
      {
        ScopedSpan span(owner_.tracer_, "sched.cache.release",
                        owner_.batch_span_.load(), owner_.replicate_id(key_));
        inner_.release();
      }
      owner_.record(kRelease, key_, t0, now_ns());
    }

   private:
    TimedBackend& owner_;
    CellKey key_;
    CacheClaim inner_;
  };

  std::optional<CacheClaim> wrap(const CellKey& key, std::optional<CacheClaim> c) {
    if (!c) return std::nullopt;
    return CacheClaim(std::make_unique<TimedClaim>(*this, key, std::move(*c)));
  }

  std::int64_t replicate_id(const CellKey& key) const {
    return static_cast<std::int64_t>(key.lo & 0x7fffffffffffffffull);
  }

  void record(Op op, const CellKey& key, std::int64_t t0, std::int64_t t1) {
    const double ms = ms_between(t0, t1);
    std::lock_guard<std::mutex> lock(mu_);
    key_ms_[key] += ms;
    ++rpcs_;
    if (tracer_ != nullptr) {
      op_ms_[op].push_back(ms);
      ++shard_ops_[shard_of_(key)];
    }
  }

  CacheBackend& inner_;
  std::function<std::size_t(const CellKey&)> shard_of_;
  std::function<bool(const CellKey&)> degraded_;
  Tracer* tracer_ = nullptr;
  std::atomic<std::int64_t> batch_span_{0};
  std::atomic<std::int64_t> failures_{0};
  mutable std::mutex mu_;
  std::unordered_map<CellKey, double, CellKeyHash> key_ms_;
  std::vector<double> op_ms_[kOps];
  std::map<std::size_t, std::int64_t> shard_ops_;
  std::int64_t rpcs_ = 0;
};

/// One set-up's world: tasks, memo results, daemons, clients, and the plans
/// the timed phase runs.
struct CacheState {
  std::deque<nnr::core::Task> tasks = make_tasks();
  std::vector<RunResult> memo;  // by task index, trained once here
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::unique_ptr<nnr::sched::RemoteCacheBackend> remote;     // replay
  std::unique_ptr<nnr::sched::ShardedCacheBackend> sharded;   // fill
  std::vector<std::unique_ptr<nnr::sched::FsCacheBackend>> housekeeping;
  std::unique_ptr<TimedBackend> timed;
  std::vector<StudyPlan> replay;  // fig1-like, table2-like
  std::string dir;

  ~CacheState() {
    timed.reset();
    remote.reset();
    sharded.reset();
    daemons.clear();
    std::error_code ec;
    if (!dir.empty()) fs::remove_all(dir, ec);
  }

  [[nodiscard]] std::size_t task_of(const nnr::sched::Cell& cell) const {
    return cell.job.dataset == &tasks[kSmallCnn].dataset ? kSmallCnn : kResnet;
  }

  /// Memo runners: the "run" step returns the result trained at set-up.
  void attach_memo(StudyPlan& plan) {
    for (nnr::sched::Cell& cell : plan.cells()) {
      const RunResult* result = &memo[task_of(cell)];
      cell.runner = [result](const nnr::core::TrainJob&, nnr::core::ReplicateIds) {
        return *result;
      };
    }
  }
};

/// A cache phase also tracks the daemons' CPU, the RPCs and the cache
/// counters of its passes (a pass is one batch).
struct CachePhase : Phase {
  double daemon_cpu_ms = 0;
  std::int64_t rpcs = 0;
  std::int64_t coalesced = 0;
  CacheStats cache;
  CachePhase& operator+=(const CachePhase& other) {
    Phase::operator+=(other);
    daemon_cpu_ms += other.daemon_cpu_ms;
    rpcs += other.rpcs;
    coalesced += other.coalesced;
    cache.hits += other.cache.hits;
    cache.misses += other.cache.misses;
    cache.corrupt += other.cache.corrupt;
    cache.stores += other.cache.stores;
    return *this;
  }
};

class CacheRunner {
 public:
  CacheRunner(const RunConfig& config, CacheState& state, RunOutput& out)
      : config_(config), state_(state), out_(out),
        threads_(worker_threads(*config.workload)), probe_(threads_),
        fill_(config.workload->kind == WorkloadKind::kCacheFill) {}

  /// Runs passes until `budget_s` of wall time has passed and at least
  /// `min_samples` latency samples were taken.
  CachePhase run_phase(double budget_s, std::int64_t min_samples, Tracer* tracer) {
    CachePhase phase;
    TimedBackend& timed = *state_.timed;
    timed.set_tracer(tracer);
    const std::int64_t start = now_ns();
    const std::int64_t hard_stop =
        start + static_cast<std::int64_t>(4 * budget_s * 1e9);
    nnr::sched::RunOptions opts;
    opts.threads = threads_;
    opts.cache = &timed;
    const auto more = [&] {
      if (phase.batches == 0) return true;
      const std::int64_t now = now_ns();
      return now < hard_stop &&
             (now - start < static_cast<std::int64_t>(budget_s * 1e9) ||
              static_cast<std::int64_t>(samples_.size()) < min_samples);
    };
    while (more()) {
      std::optional<StudyPlan> fill_plan_storage;
      std::vector<const StudyPlan*> plans;
      if (fill_) {
        fill_plan_storage.emplace(fill_plan(state_.tasks, config_.seed, pass_));
        state_.attach_memo(*fill_plan_storage);
        plans = {&*fill_plan_storage};
      } else if (replay_table2_first(config_.seed, pass_)) {
        plans = {&state_.replay[1], &state_.replay[0]};
      } else {
        plans = {&state_.replay[0], &state_.replay[1]};
      }
      ++pass_;
      const double cpu0 = daemon_cpu_ms();
      const std::int64_t rpcs0 = timed.rpcs();
      std::optional<ScopedSpan> batch_span;
      if (tracer != nullptr) {
        batch_span.emplace(tracer, "sched.run_batch", 0, 0);
        timed.set_batch_span(batch_span->id());
      }
      const double speed = probe_.speed();
      const std::int64_t t0 = now_ns();
      nnr::sched::BatchResult batch = nnr::sched::run_batch(plans, opts);
      const std::int64_t dt = now_ns() - t0;
      batch_span.reset();
      std::int64_t settled = 0;
      for (const StudyPlan* p : plans) settled += p->total_replicates();
      phase.add_batch(dt, settled, speed);
      phase.daemon_cpu_ms += daemon_cpu_ms() - cpu0;
      phase.rpcs += timed.rpcs() - rpcs0;
      phase.coalesced += batch.coalesced;
      phase.cache.hits += batch.cache.hits;
      phase.cache.misses += batch.cache.misses;
      phase.cache.corrupt += batch.cache.corrupt;
      phase.cache.stores += batch.cache.stores;
      for (const double ms : timed.harvest_replicate_ms()) samples_.push_back(ms * speed);
      check(plans, batch, settled);
      if (fill_) sweep();
    }
    timed.set_tracer(nullptr);
    return phase;
  }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  void clear_samples() { samples_.clear(); }
  [[nodiscard]] int threads() const { return threads_; }

  double daemon_cpu_ms() const {
    double total = 0;
    for (const auto& d : state_.daemons) total += cpu_ms(d->pid());
    return total;
  }

 private:
  /// Every replicate must equal the bytes stored at set-up (replay) or the
  /// memo result it stored (fill). Replay loads never miss; fill passes
  /// store every replicate, read nothing corrupt, and a sampled read-back
  /// returns the stored bytes.
  void check(const std::vector<const StudyPlan*>& plans,
             const nnr::sched::BatchResult& batch, std::int64_t settled) {
    if (out_.digest.empty()) {
      // result_digest: the first pass's bytes in grid order.
      Fnv64 digest;
      for (std::size_t p = 0; p < plans.size(); ++p) {
        const auto& cells = plans[p]->cells();
        for (std::size_t c = 0; c < cells.size(); ++c) {
          const auto& reps = batch.studies[p].cells[c];
          for (std::size_t r = 0; r < reps.size(); ++r) {
            const CellKey key = nnr::sched::cell_key(
                cells[c], cells[c].ids_for(static_cast<std::int64_t>(r)));
            digest.add(nnr::serialize::encode_run_result(reps[r], key.hi, key.lo));
          }
        }
      }
      out_.digest = strf("%016llx", static_cast<unsigned long long>(digest.value()));
    }
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const auto& cells = plans[p]->cells();
      for (std::size_t c = 0; c < cells.size(); ++c) {
        for (const RunResult& r : batch.studies[p].cells[c]) {
          if (!same_bits(r, state_.memo[state_.task_of(cells[c])])) {
            fail("a replicate differs from the bytes stored for its key");
          }
        }
      }
    }
    if (batch.cache.corrupt != 0) fail("corrupt entries read");
    const std::int64_t wrapper_failures = state_.timed->failures();
    for (std::int64_t i = reported_wrapper_failures_; i < wrapper_failures; ++i) {
      fail("a store returned false or a claim was refused or degraded");
    }
    reported_wrapper_failures_ = wrapper_failures;
    if (!fill_) {
      for (std::int64_t i = 0; i < batch.cache.misses; ++i) {
        fail("a load missed a key stored at set-up");
      }
      return;
    }
    if (batch.cache.stores != settled) {
      fail(strf("stores %lld != replicates %lld",
                static_cast<long long>(batch.cache.stores),
                static_cast<long long>(settled)));
    }
    // Sampled read-back: two keys of the pass, chosen by the seed.
    const std::vector<CellKey> keys = plan_keys(plans);
    for (std::uint64_t i = 0; i < 2 && !keys.empty(); ++i) {
      const std::uint64_t pick = mix64(config_.seed ^ mix64(pass_ * 2 + i)) % keys.size();
      const std::optional<RunResult> back = state_.sharded->load(keys[pick]);
      std::size_t task = kSmallCnn;
      std::size_t flat = 0;
      for (const nnr::sched::Cell& cell : plans[0]->cells()) {
        if (pick < flat + static_cast<std::size_t>(cell.replicates)) {
          task = state_.task_of(cell);
          break;
        }
        flat += static_cast<std::size_t>(cell.replicates);
      }
      if (!back || !same_bits(*back, state_.memo[task])) {
        fail("sampled read-back did not return the stored bytes");
      }
    }
  }

  /// Empties every shard between passes (untimed), so each pass is a cold
  /// pass into an empty tier and disk use stays bounded by one pass.
  void sweep() {
    for (const auto& hk : state_.housekeeping) (void)hk->gc();
  }

  void fail(const std::string& why) {
    ++out_.failed;
    if (out_.failed <= 5) out_.notes.push_back("FAILED: " + why);
  }

  const RunConfig& config_;
  CacheState& state_;
  RunOutput& out_;
  const int threads_;
  SpeedProbe probe_;
  const bool fill_;
  std::uint64_t pass_ = 0;
  std::vector<double> samples_;
  std::int64_t reported_wrapper_failures_ = 0;
};

std::unique_ptr<CacheState> set_up(const RunConfig& config, int index) {
  const Workload& w = *config.workload;
  auto s = std::make_unique<CacheState>();
  s->dir = config.work_dir + "/" + w.name + "-setup" + std::to_string(index);
  std::error_code ec;
  fs::remove_all(s->dir, ec);
  for (std::size_t t : {kSmallCnn, kResnet}) {
    s->memo.push_back(nnr::core::train_replicate(
        s->tasks[t].job(nnr::core::NoiseVariant::kControl, nnr::hw::v100()), 0));
  }
  std::vector<std::string> urls;
  for (int d = 0; d < w.daemons; ++d) {
    const std::string dir = s->dir + "/shard" + std::to_string(d);
    fs::create_directories(dir);
    s->daemons.push_back(std::make_unique<Daemon>(config.daemon_binary, dir));
    urls.push_back(s->daemons.back()->url());
  }
  if (w.kind == WorkloadKind::kCacheFill) {
    s->sharded = std::make_unique<nnr::sched::ShardedCacheBackend>(urls);
    if (const auto clash = s->sharded->verify_disjoint()) {
      throw std::runtime_error("shard map: " + *clash);
    }
    for (const auto& d : s->daemons) {
      s->housekeeping.push_back(
          std::make_unique<nnr::sched::FsCacheBackend>(d->dir(), /*budget=*/1));
    }
    nnr::sched::ShardedCacheBackend* sharded = s->sharded.get();
    s->timed = std::make_unique<TimedBackend>(
        *sharded, [sharded](const CellKey& k) { return sharded->shard_for(k); },
        [sharded](const CellKey& k) {
          const std::size_t i = sharded->shard_for(k);
          return sharded->shard_marked_down(i) || !sharded->shard(i).connected();
        });
    return s;
  }
  s->remote = std::make_unique<nnr::sched::RemoteCacheBackend>(urls[0]);
  nnr::sched::RemoteCacheBackend* remote = s->remote.get();
  s->timed = std::make_unique<TimedBackend>(
      *remote, [](const CellKey&) { return std::size_t{0}; },
      [remote](const CellKey&) { return !remote->connected(); });
  s->replay = replay_plans(s->tasks, config.seed);
  for (StudyPlan& plan : s->replay) s->attach_memo(plan);
  // Populate: one cold pass of the batch stores every unique entry.
  nnr::sched::RunOptions opts;
  opts.threads = worker_threads(w);
  opts.cache = s->timed.get();
  const nnr::sched::BatchResult cold =
      nnr::sched::run_batch({&s->replay[0], &s->replay[1]}, opts);
  const std::size_t unique = [&] {
    std::vector<CellKey> keys = plan_keys({&s->replay[0], &s->replay[1]});
    std::sort(keys.begin(), keys.end(), [](const CellKey& a, const CellKey& b) {
      return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    });
    return static_cast<std::size_t>(std::unique(keys.begin(), keys.end()) - keys.begin());
  }();
  if (cold.cache.stores != static_cast<std::int64_t>(unique)) {
    throw std::runtime_error(strf("populate stored %lld of %zu entries",
                                  static_cast<long long>(cold.cache.stores), unique));
  }
  return s;
}

double p50_or_0(const std::vector<double>& v) { return percentile(v, 0.5); }

void report_traced(CacheState& state, TimedBackend& timed, const CachePhase& reference,
                   const CachePhase& traced, Tracer& tracer, RunOutput& out) {
  MetricValues& m = out.metrics;
  const std::map<std::string, SpanTotals> totals = totals_by_name(tracer.spans());
  const auto batch = totals.find("sched.run_batch");
  const double reps = static_cast<double>(std::max<std::int64_t>(1, traced.replicates));
  if (batch != totals.end()) {
    m["sched.run_batch.self_ms_per_replicate"] =
        static_cast<double>(batch->second.self_ns) / 1e6 / reps;
  }
  m["sched.coalesced_frac"] = static_cast<double>(traced.coalesced) / reps;
  const double loads = static_cast<double>(traced.cache.hits + traced.cache.misses);
  if (loads > 0) m["sched.cache.hit_ratio"] = static_cast<double>(traced.cache.hits) / loads;
  const std::vector<double> hit = timed.op_ms(kLoadHit);
  m["sched.cache.load_hit_ms_p50"] = p50_or_0(hit);
  m["sched.cache.load_hit_ms_p99"] = percentile(hit, 0.99);
  m["sched.cache.load_miss_ms_p50"] = p50_or_0(timed.op_ms(kLoadMiss));
  m["sched.cache.try_claim_ms_p50"] = p50_or_0(timed.op_ms(kTryClaim));
  const std::vector<double> store = timed.op_ms(kStore);
  m["sched.cache.store_ms_p50"] = p50_or_0(store);
  m["sched.cache.store_ms_p99"] = percentile(store, 0.99);
  m["sched.cache.release_ms_p50"] = p50_or_0(timed.op_ms(kRelease));
  m["sched.cache.rpcs_per_replicate"] = static_cast<double>(traced.rpcs) / reps;
  out.notes.push_back(strf("load_hit samples n=%zu (%lld beyond p99), store n=%zu "
                           "(%lld beyond p99)",
                           hit.size(),
                           static_cast<long long>(samples_beyond(
                               static_cast<std::int64_t>(hit.size()), 0.99)),
                           store.size(),
                           static_cast<long long>(samples_beyond(
                               static_cast<std::int64_t>(store.size()), 0.99))));
  const std::map<std::size_t, std::int64_t> per_shard = timed.shard_ops();
  if (!per_shard.empty() && !state.daemons.empty()) {
    std::int64_t max = 0;
    std::int64_t sum = 0;
    for (const auto& [shard, ops] : per_shard) {
      max = std::max(max, ops);
      sum += ops;
    }
    m["sched.shard.max_over_mean"] =
        static_cast<double>(max) * static_cast<double>(state.daemons.size()) /
        static_cast<double>(sum);
  }
  if (traced.rpcs > 0) m["nnr_cached.cpu_ms_per_op"] = traced.daemon_cpu_ms / static_cast<double>(traced.rpcs);
  if (traced.timed_ns > 0) {
    m["nnr_cached.busy_frac"] = traced.daemon_cpu_ms /
                                static_cast<double>(state.daemons.size()) /
                                (static_cast<double>(traced.timed_ns) / 1e6);
  }
  if (traced.rate() > 0) m["trace.overhead_frac"] = reference.rate() / traced.rate() - 1.0;

  // Serialize at the workload's entry sizes, weighted by the task mix of
  // the stored entries (twice as many SmallCNN+BN replicates).
  constexpr int kCalls = 50;
  double encode_ms = 0, decode_ms = 0, validate_ms = 0, entry_kb = 0;
  const double weights[2] = {2.0 / 3.0, 1.0 / 3.0};
  for (std::size_t t : {kSmallCnn, kResnet}) {
    const std::string bytes = nnr::serialize::encode_run_result(state.memo[t], 1, 2);
    std::vector<double> enc, dec, val;
    for (int i = 0; i < kCalls; ++i) {
      std::int64_t t0 = now_ns();
      const std::string e = nnr::serialize::encode_run_result(state.memo[t], 1, 2);
      enc.push_back(ms_between(t0, now_ns()));
      t0 = now_ns();
      const RunResult d = nnr::serialize::decode_run_result(e, 1, 2, "perfbench");
      dec.push_back(ms_between(t0, now_ns()));
      t0 = now_ns();
      const bool ok = nnr::serialize::validate_run_result_bytes(e, 1, 2);
      val.push_back(ms_between(t0, now_ns()));
      if (!ok || !same_bits(d, state.memo[t])) out.failed += 1;
    }
    encode_ms += weights[t] * percentile(enc, 0.5);
    decode_ms += weights[t] * percentile(dec, 0.5);
    validate_ms += weights[t] * percentile(val, 0.5);
    entry_kb += weights[t] * static_cast<double>(bytes.size()) / 1024.0;
  }
  m["serialize.encode_ms"] = encode_ms;
  m["serialize.decode_ms"] = decode_ms;
  m["serialize.validate_ms"] = validate_ms;
  m["serialize.entry_kb"] = entry_kb;

  // Round-trip floor: PINGs on a fresh client per daemon.
  std::vector<double> ping;
  double connects = 0;
  for (const auto& d : state.daemons) {
    nnr::sched::RemoteCacheBackend client(d->url());
    for (int i = 0; i < 200; ++i) {
      const std::int64_t t0 = now_ns();
      if (!client.ping()) out.failed += 1;
      ping.push_back(ms_between(t0, now_ns()));
    }
  }
  if (state.remote) connects += static_cast<double>(state.remote->connect_attempts_for_test());
  if (state.sharded) {
    for (std::size_t i = 0; i < state.sharded->shard_count(); ++i) {
      connects += static_cast<double>(state.sharded->shard(i).connect_attempts_for_test());
    }
  }
  m["net.ping_ms_p50"] = p50_or_0(ping);
  m["net.connect_attempts"] = connects;
  out.notes.push_back(strf("traced %lld replicates in %lld passes; reference "
                           "(untraced) %lld in %lld",
                           static_cast<long long>(traced.replicates),
                           static_cast<long long>(traced.batches),
                           static_cast<long long>(reference.replicates),
                           static_cast<long long>(reference.batches)));
}

}  // namespace

RunOutput run_cache(const RunConfig& config) {
  RunOutput out;
  const Workload& w = *config.workload;
  std::unique_ptr<CacheState> state;
  int setups = 0;
  out.metrics["setup_s"] = timed_setups(SpeedProbe(worker_threads(w)), [&] {
    state.reset();
    nnr::runtime::ThreadPool::set_global_threads(worker_threads(w));
    state = set_up(config, setups++);
  });

  CacheRunner runner(config, *state, out);
  state->timed->reset_counters();
  const std::int64_t min_samples = min_samples_for(0.9);
  if (!config.trace) {
    // An untimed warm-up pass, then the timed phase.
    const CachePhase warm_up = runner.run_phase(0, 0, nullptr);
    runner.clear_samples();
    const CachePhase phase = runner.run_phase(config.seconds, min_samples, nullptr);
    out.attempted = warm_up.replicates + phase.replicates;
    report_rate(phase, out);
    report_latency(runner.samples(), out);
    out.notes.push_back(strf("%lld replicates in %lld passes, %.3f s timed, T=%d, "
                             "daemons=%d, coalesced=%lld",
                             static_cast<long long>(phase.replicates),
                             static_cast<long long>(phase.batches),
                             static_cast<double>(phase.timed_ns) / 1e9,
                             runner.threads(), w.daemons,
                             static_cast<long long>(phase.coalesced)));
  } else {
    // A warm-up pass, then untraced and traced passes alternate until the
    // time is up, so both rates see the same machine state.
    Tracer tracer;
    const CachePhase warm_up = runner.run_phase(0, 0, nullptr);
    CachePhase reference;
    CachePhase traced;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
    while (traced.batches == 0 || now_ns() < deadline) {
      reference += runner.run_phase(0, 0, nullptr);
      traced += runner.run_phase(0, 0, &tracer);
    }
    out.attempted = warm_up.replicates + reference.replicates + traced.replicates;
    report_traced(*state, *state->timed, reference, traced, tracer, out);
    const std::string path = config.work_dir + "/trace-" + w.name + ".json";
    if (tracer.write_chrome_json(path)) out.notes.push_back("spans written to " + path);
  }
  std::int64_t rss_kib = peak_rss_kib();
  for (const auto& d : state->daemons) rss_kib += peak_rss_kib(d->pid());
  out.metrics["peak_rss_mb"] = static_cast<double>(rss_kib) / 1024.0;
  return out;
}

}  // namespace perfbench
