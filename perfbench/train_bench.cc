// Training workloads (train_nondet, train_det): a closed loop of T pool
// workers training the workload's grid through sched::run_batch, which
// reaches core::train_replicate through each cell's runner.
//
// Untraced runs time each core::train_replicate call (two clock reads, one
// sample). Traced runs swap in a runner that repeats train_replicate's loop
// with a span around every public call, then replay the step's tensor
// kernels one at a time at the shapes the traced step recorded.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "core/trainer.h"
#include "data/augment.h"
#include "data/batcher.h"
#include "hw/execution_context.h"
#include "metrics/classification.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/residual.h"
#include "opt/sgd.h"
#include "proc.h"
#include "rng/seed_channels.h"
#include "runtime/thread_pool.h"
#include "sched/scheduler.h"
#include "serialize/run_result.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"
#include "trace.h"

namespace perfbench {
namespace {

using nnr::core::ReplicateIds;
using nnr::core::RunResult;
using nnr::core::TrainJob;
using nnr::sched::StudyPlan;
using nnr::tensor::Shape;
using nnr::tensor::Tensor;

struct TrainState {
  std::deque<nnr::core::Task> tasks = make_tasks();
  StudyPlan plan;
  TrainState(const Workload& w, std::uint64_t seed)
      : plan(training_plan(w, tasks, seed)) {}

  [[nodiscard]] std::size_t task_of(const nnr::sched::Cell& cell) const {
    return cell.job.dataset == &tasks[kSmallCnn].dataset ? kSmallCnn : kResnet;
  }
};

/// Input and output shape of each top-level layer in one training step.
using StepShapes = std::vector<std::pair<Shape, Shape>>;

/// What the traced runner shares across pool workers.
struct TraceContext {
  Tracer tracer;
  std::atomic<std::int64_t> batch_span{0};
  std::mutex shapes_mu;
  std::map<std::size_t, StepShapes> shapes;  // by task index
};

const char* layer_kind_span(Tracer& tracer, nnr::nn::Layer& layer,
                            const char* suffix) {
  std::string kind = layer.name();
  kind = kind.substr(0, kind.find('('));
  return tracer.intern("nn." + kind + suffix);
}

/// core::train_replicate with a span around every public call. Must stay
/// byte-identical to it: same calls, same order, same noise streams.
RunResult traced_replicate(const TrainJob& job, ReplicateIds ids,
                           TraceContext& tc, std::size_t task) {
  using nnr::rng::Channel;
  using nnr::rng::make_channel_generator;
  Tracer* tr = &tc.tracer;
  const std::int64_t rep = tr->next_id();
  ScopedSpan root(tr, "core.replicate", tc.batch_span.load(), rep);
  const std::int64_t parent = root.id();

  ScopedSpan init(tr, "core.init", parent, rep);
  const nnr::core::ChannelToggles toggles =
      job.toggles_override ? *job.toggles_override
                           : nnr::core::toggles_for(job.variant);
  const nnr::data::LabeledImages& train = job.dataset->train;
  const nnr::data::LabeledImages& test = job.dataset->test;
  auto init_gen = make_channel_generator(job.base_seed, Channel::kInit,
                                         ids.algo, toggles.init_varies);
  auto shuffle_gen = make_channel_generator(job.base_seed, Channel::kShuffle,
                                            ids.algo, toggles.shuffle_varies);
  auto augment_gen = make_channel_generator(job.base_seed, Channel::kAugment,
                                            ids.algo, toggles.augment_varies);
  auto dropout_gen = make_channel_generator(job.base_seed, Channel::kDropout,
                                            ids.algo, toggles.dropout_varies);
  auto scheduler_gen =
      make_channel_generator(job.base_seed, Channel::kScheduler, ids.impl,
                             toggles.scheduler_varies);
  nnr::hw::ExecutionContext hw_ctx(job.device, toggles.mode,
                                   std::move(scheduler_gen));
  nnr::nn::Model model = job.make_model();
  if (job.warm_start_weights) {
    model.load_flat_weights(*job.warm_start_weights);
  } else {
    model.init_weights(init_gen);
  }
  const std::unique_ptr<nnr::opt::Optimizer> optimizer =
      job.make_optimizer
          ? job.make_optimizer(model.params())
          : std::make_unique<nnr::opt::Sgd>(model.params(), job.recipe.momentum);
  nnr::data::EpochShuffler shuffler(train.size(), std::move(shuffle_gen));
  nnr::tensor::Workspace workspace;
  nnr::nn::RunContext ctx{.hw = &hw_ctx,
                          .training = true,
                          .dropout = &dropout_gen,
                          .workspace = &workspace};
  std::vector<const char*> fwd_span;
  std::vector<const char*> bwd_span;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    fwd_span.push_back(layer_kind_span(*tr, model.layer(i), ".fwd"));
    bwd_span.push_back(layer_kind_span(*tr, model.layer(i), ".bwd"));
  }
  init.end();

  bool record_shapes = false;
  {
    std::lock_guard<std::mutex> lock(tc.shapes_mu);
    record_shapes = tc.shapes.find(task) == tc.shapes.end();
  }
  StepShapes shapes;

  double last_loss = 0.0;
  for (std::int64_t epoch = 0; epoch < job.recipe.epochs; ++epoch) {
    const float lr = job.recipe.learning_rate(epoch);
    ScopedSpan shuffle(tr, "data.shuffle", parent, rep);
    const std::vector<std::uint32_t> order = job.fixed_identity_order
                                                 ? shuffler.identity_order()
                                                 : shuffler.next_epoch_order();
    shuffle.end();
    for (std::int64_t start = 0; start < train.size();
         start += job.recipe.batch_size) {
      const std::int64_t end =
          std::min(start + job.recipe.batch_size, train.size());
      const std::span<const std::uint32_t> batch_idx(
          order.data() + start, static_cast<std::size_t>(end - start));

      ScopedSpan gather(tr, "data.gather", parent, rep);
      Tensor images = nnr::data::gather_images(train.images, batch_idx);
      gather.end();
      if (job.recipe.augment) {
        ScopedSpan augment(tr, "data.augment", parent, rep);
        images = nnr::data::augment_batch(images, job.recipe.augment_config,
                                          augment_gen);
      }
      ScopedSpan gather_labels(tr, "data.gather", parent, rep);
      const std::vector<std::int32_t> labels =
          nnr::data::gather_labels(train.labels, batch_idx);
      gather_labels.end();

      {
        ScopedSpan zero(tr, "nn.zero_grads", parent, rep);
        model.zero_grads();
      }
      // Model::forward / Model::backward, one span per layer.
      Tensor activation = images;
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        ScopedSpan layer(tr, fwd_span[i], parent, rep);
        Tensor next = model.layer(i).forward(activation, ctx);
        layer.end();
        if (record_shapes) shapes.emplace_back(activation.shape(), next.shape());
        activation = std::move(next);
      }
      ScopedSpan loss_span(tr, "nn.loss", parent, rep);
      const nnr::nn::LossResult loss =
          nnr::nn::softmax_cross_entropy(activation, labels, ctx);
      loss_span.end();
      last_loss = loss.loss;
      Tensor grad = loss.grad_logits;
      for (std::size_t i = model.num_layers(); i-- > 0;) {
        ScopedSpan layer(tr, bwd_span[i], parent, rep);
        grad = model.layer(i).backward(grad, ctx);
      }
      {
        ScopedSpan step(tr, "opt.step", parent, rep);
        optimizer->step(lr);
      }
      if (record_shapes) {
        std::lock_guard<std::mutex> lock(tc.shapes_mu);
        tc.shapes.emplace(task, shapes);
        record_shapes = false;
      }
    }
  }

  ScopedSpan eval_span(tr, "core.eval", parent, rep);
  RunResult result;
  result.final_train_loss = last_loss;
  nnr::core::EvalResult eval =
      nnr::core::evaluate_full(model, test, hw_ctx, job.recipe.batch_size);
  result.test_predictions = std::move(eval.predictions);
  result.test_confidences = std::move(eval.confidences);
  result.test_accuracy =
      nnr::metrics::accuracy(result.test_predictions, test.labels);
  result.final_weights = model.flat_weights();
  return result;
}

// ---------------------------------------------------------------------------
// Kernel replay: the step's gemm_nt / im2col / col2im / transpose calls, at
// the traced step's shapes, one kernel at a time.

struct KernelTotals {
  double gemm_ms = 0;
  double im2col_ms = 0;
  double col2im_ms = 0;
  double transpose_ms = 0;
  double gemm_flop = 0;
  double moved_bytes = 0;
};

Tensor random_tensor(Shape shape, nnr::rng::Generator& gen) {
  Tensor t(shape);
  for (float& v : t.data()) v = gen.uniform(-1.0F, 1.0F);
  return t;
}

class KernelReplay {
 public:
  KernelReplay(nnr::hw::ExecutionContext& ctx, KernelTotals& totals)
      : ctx_(ctx), totals_(totals) {}

  void conv(const nnr::tensor::ConvGeometry& g, std::int64_t out_c) {
    const std::int64_t p = g.out_pixels();
    const std::int64_t k = g.patch_size();
    Tensor input = random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, gen_);
    Tensor w = random_tensor(Shape{out_c, k}, gen_);
    Tensor cols(Shape{p, k});
    totals_.im2col_ms += time([&] { nnr::tensor::im2col(input, g, cols); });
    totals_.moved_bytes += 4.0 * static_cast<double>(input.numel() + cols.numel());
    Tensor out_pc(Shape{p, out_c});
    gemm(cols, w, out_pc);
    Tensor cols_kp(Shape{k, p});
    transpose(cols, cols_kp);
    Tensor dy_cp = random_tensor(Shape{out_c, p}, gen_);
    Tensor dw(Shape{out_c, k});
    gemm(dy_cp, cols_kp, dw);
    Tensor w_kc(Shape{k, out_c});
    transpose(w, w_kc);
    Tensor dy_pc = random_tensor(Shape{p, out_c}, gen_);
    Tensor dcols(Shape{p, k});
    gemm(dy_pc, w_kc, dcols);
    Tensor grad_input(input.shape());
    totals_.col2im_ms += time([&] { nnr::tensor::col2im(dcols, g, grad_input); });
    totals_.moved_bytes += 4.0 * static_cast<double>(dcols.numel() + grad_input.numel());
  }

  void dense(std::int64_t n, std::int64_t in, std::int64_t out) {
    Tensor x = random_tensor(Shape{n, in}, gen_);
    Tensor w = random_tensor(Shape{out, in}, gen_);
    Tensor y(Shape{n, out});
    gemm(x, w, y);
    Tensor dy = random_tensor(Shape{n, out}, gen_);
    Tensor dy_t(Shape{out, n});
    transpose(dy, dy_t);
    Tensor x_t(Shape{in, n});
    transpose(x, x_t);
    Tensor dw(Shape{out, in});
    gemm(dy_t, x_t, dw);
    Tensor w_t(Shape{in, out});
    transpose(w, w_t);
    Tensor dx(Shape{n, in});
    gemm(dy, w_t, dx);
  }

 private:
  static constexpr int kReps = 5;

  /// Median of kReps timed calls after one warm-up call, in ms.
  template <typename F>
  double time(F&& f) {
    f();
    std::vector<double> ms;
    for (int i = 0; i < kReps; ++i) {
      const std::int64_t t0 = now_ns();
      f();
      ms.push_back(ms_between(t0, now_ns()));
    }
    return percentile(ms, 0.5);
  }

  void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
    totals_.gemm_ms += time([&] {
      nnr::tensor::gemm_nt(a, b, c, ctx_.matmul_policy());
    });
    totals_.gemm_flop += 2.0 * static_cast<double>(a.shape()[0]) *
                         static_cast<double>(b.shape()[0]) *
                         static_cast<double>(a.shape()[1]);
  }

  void transpose(const Tensor& in, Tensor& out) {
    totals_.transpose_ms += time([&] { nnr::tensor::transpose(in, out); });
    totals_.moved_bytes += 8.0 * static_cast<double>(in.numel());
  }

  nnr::hw::ExecutionContext& ctx_;
  KernelTotals& totals_;
  nnr::rng::Generator gen_{0x7265706c6179ull};  // "replay"
};

/// Geometry of a square-kernel conv whose output spatial size is out_h,
/// with "same"-style padding unless `pad` is given.
nnr::tensor::ConvGeometry conv_geometry(const Shape& in, std::int64_t kernel,
                                        std::int64_t out_h, std::int64_t pad) {
  for (std::int64_t stride = 1; stride <= 4; ++stride) {
    const nnr::tensor::ConvGeometry g{.batch = in[0],
                                      .in_channels = in[1],
                                      .in_h = in[2],
                                      .in_w = in[3],
                                      .kernel = kernel,
                                      .stride = stride,
                                      .pad = pad};
    if (g.out_h() == out_h) return g;
  }
  throw std::runtime_error("replay: no stride matches a traced conv shape");
}

std::int64_t kernel_size(std::int64_t patch, std::int64_t in_channels) {
  return std::llround(std::sqrt(static_cast<double>(patch / in_channels)));
}

/// Replays one step of `model` at the traced `shapes`.
void replay_step(nnr::nn::Model& model, const StepShapes& shapes,
                 KernelReplay& replay) {
  for (std::size_t i = 0; i < model.num_layers() && i < shapes.size(); ++i) {
    nnr::nn::Layer& layer = model.layer(i);
    const Shape& in = shapes[i].first;
    const Shape& out = shapes[i].second;
    if (auto* conv = dynamic_cast<nnr::nn::Conv2D*>(&layer)) {
      const std::int64_t k = conv->kernel();
      replay.conv(conv_geometry(in, k, out[2], k / 2), out[1]);
    } else if (dynamic_cast<nnr::nn::Dense*>(&layer) != nullptr) {
      replay.dense(in[0], in[1], out[1]);
    } else if (dynamic_cast<nnr::nn::BasicBlock*>(&layer) != nullptr) {
      // conv1 (3x3, block stride), conv2 (3x3, stride 1), optional 1x1
      // projection (block stride, no padding) — nn/residual.h.
      std::vector<Shape> w;
      for (nnr::nn::Param* p : layer.params()) {
        if (p->name == "conv.weight") w.push_back(p->value.shape());
      }
      const std::int64_t k1 = kernel_size(w[0][1], in[1]);
      replay.conv(conv_geometry(in, k1, out[2], k1 / 2), w[0][0]);
      const Shape mid{in[0], w[0][0], out[2], out[3]};
      const std::int64_t k2 = kernel_size(w[1][1], w[0][0]);
      replay.conv(conv_geometry(mid, k2, out[2], k2 / 2), w[1][0]);
      if (w.size() > 2) replay.conv(conv_geometry(in, 1, out[2], 0), w[2][0]);
    }
  }
}

/// Runs `body` on a pool worker inside a parallel region, so the kernels'
/// nested parallel_for calls run inline, as they do under run_batch.
void on_pool_worker(const std::function<void()>& body) {
  nnr::runtime::ThreadPool::global().parallel_for(
      0, 2, 1,
      [&](std::int64_t b, std::int64_t) {
        if (b == 0) body();
      },
      2);
}

// ---------------------------------------------------------------------------

class Trainer {
 public:
  Trainer(const Workload& workload, TrainState& state, RunOutput& out)
      : state_(state), out_(out), threads_(worker_threads(workload)),
        probe_(threads_) {}

  void use_timed_runners() {
    for (nnr::sched::Cell& cell : state_.plan.cells()) {
      const std::size_t task = state_.task_of(cell);
      SampleSink* sink = &sink_;
      cell.runner = [sink, task](const TrainJob& job, ReplicateIds ids) {
        const std::int64_t t0 = now_ns();
        RunResult result = nnr::core::train_replicate(job, ids);
        sink->add(task, ms_between(t0, now_ns()));
        return result;
      };
    }
  }

  void use_traced_runners(TraceContext& tc) {
    for (nnr::sched::Cell& cell : state_.plan.cells()) {
      const std::size_t task = state_.task_of(cell);
      cell.runner = [&tc, task](const TrainJob& job, ReplicateIds ids) {
        return traced_replicate(job, ids, tc, task);
      };
    }
  }

  /// Runs whole batches until `budget_s` of wall time has passed and at
  /// least `min_replicates` replicates settled.
  Phase run_phase(double budget_s, std::int64_t min_replicates,
                  TraceContext* tc) {
    Phase phase;
    const std::int64_t start = now_ns();
    const std::int64_t hard_stop =
        start + static_cast<std::int64_t>(4 * budget_s * 1e9);
    nnr::sched::RunOptions opts;
    opts.threads = threads_;
    const auto more = [&] {
      if (phase.batches == 0) return true;
      const std::int64_t now = now_ns();
      return now < hard_stop &&
             (now - start < static_cast<std::int64_t>(budget_s * 1e9) ||
              phase.replicates < min_replicates);
    };
    while (more()) {
      std::optional<ScopedSpan> batch_span;
      if (tc != nullptr) {
        batch_span.emplace(&tc->tracer, "sched.run_batch", 0, 0);
        tc->batch_span.store(batch_span->id());
      }
      const double speed = probe_.speed();
      const std::size_t first_sample = sink_.size();
      const std::int64_t t0 = now_ns();
      nnr::sched::BatchResult batch = nnr::sched::run_batch({&state_.plan}, opts);
      phase.add_batch(now_ns() - t0, state_.plan.total_replicates(), speed);
      sink_.scale_since(first_sample, speed);
      batch_span.reset();
      check(batch.studies[0]);
    }
    return phase;
  }

  [[nodiscard]] const SampleSink& sink() const { return sink_; }
  void clear_samples() { sink_.clear(); }
  [[nodiscard]] int threads() const { return threads_; }

 private:
  /// Correctness of one batch. The first batch is the reference: CONTROL
  /// replicates of a cell must be bitwise identical, IMPL replicates must
  /// end with pairwise different weights. Every later batch (traced or
  /// not) must reproduce the reference byte for byte.
  void check(const nnr::sched::StudyResult& study) {
    const auto& cells = state_.plan.cells();
    if (reference_.empty()) {
      reference_ = study.cells;
      Fnv64 digest;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto& reps = reference_[c];
        for (std::size_t r = 0; r < reps.size(); ++r) {
          const nnr::sched::CellKey key = nnr::sched::cell_key(
              cells[c], cells[c].ids_for(static_cast<std::int64_t>(r)));
          digest.add(nnr::serialize::encode_run_result(reps[r], key.hi, key.lo));
          if (cells[c].job.variant == nnr::core::NoiseVariant::kControl &&
              !same_bits(reps[r], reps[0])) {
            fail(strf("CONTROL replicate %zu of '%s' differs from replicate 0",
                      r, cells[c].id.c_str()));
          }
          if (cells[c].job.variant == nnr::core::NoiseVariant::kImpl) {
            for (std::size_t q = 0; q < r; ++q) {
              if (reps[q].final_weights == reps[r].final_weights) {
                fail(strf("IMPL replicates %zu and %zu of '%s' share weights",
                          q, r, cells[c].id.c_str()));
                break;
              }
            }
          }
        }
      }
      out_.digest = strf("%016llx", static_cast<unsigned long long>(digest.value()));
      return;
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t r = 0; r < study.cells[c].size(); ++r) {
        if (!same_bits(study.cells[c][r], reference_[c][r])) {
          fail(strf("replicate %zu of '%s' differs from the first batch", r,
                    cells[c].id.c_str()));
        }
      }
    }
  }

  void fail(const std::string& why) {
    ++out_.failed;
    if (out_.failed <= 5) out_.notes.push_back("FAILED: " + why);
  }

  TrainState& state_;
  RunOutput& out_;
  const int threads_;
  SpeedProbe probe_;
  SampleSink sink_;
  std::vector<std::vector<RunResult>> reference_;
};

void report_traced(const RunConfig& config, TrainState& state, TraceContext& tc,
                   const Phase& reference, const Phase& traced,
                   RunOutput& out) {
  MetricValues& m = out.metrics;
  const std::vector<Span> spans = tc.tracer.spans();
  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto total_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
  };
  const auto count = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double steps = std::max(1.0, count("nn.loss"));
  const double replicates = std::max(1.0, count("core.replicate"));
  for (const MetricDef& def : per_layer_metrics()) {
    const std::string& n = def.name;
    const auto ends_with = [&](const std::string& s) {
      return n.size() > s.size() && n.compare(n.size() - s.size(), s.size(), s) == 0;
    };
    if (n.rfind("nn.", 0) == 0 && (ends_with(".fwd_ms") || ends_with(".bwd_ms"))) {
      m[n] = total_ms(n.substr(0, n.size() - 3)) / steps;
    }
  }
  for (const char* name : {"nn.loss", "nn.zero_grads", "opt.step", "data.shuffle",
                           "data.gather", "data.augment"}) {
    m[std::string(name) + "_ms"] = total_ms(name) / steps;
  }
  for (const char* name : {"core.init", "core.eval", "core.replicate"}) {
    m[std::string(name) + "_ms"] = total_ms(name) / replicates;
  }
  const auto root = totals.find("core.replicate");
  if (root != totals.end() && root->second.total_ns > 0) {
    m["trace.unattributed_frac"] = static_cast<double>(root->second.self_ns) /
                                   static_cast<double>(root->second.total_ns);
  }
  const auto batch = totals.find("sched.run_batch");
  if (batch != totals.end()) {
    m["sched.run_batch.self_ms_per_replicate"] =
        static_cast<double>(batch->second.self_ns) / 1e6 /
        static_cast<double>(std::max<std::int64_t>(1, traced.replicates));
  }
  if (traced.rate() > 0) m["trace.overhead_frac"] = reference.rate() / traced.rate() - 1.0;

  // Tensor replay, weighted by each task's share of the grid's steps.
  const nnr::core::ChannelToggles toggles =
      nnr::core::toggles_for(config.workload->variants.front());
  KernelTotals mixed;
  const double total_reps = static_cast<double>(state.plan.total_replicates());
  for (std::size_t task : {kSmallCnn, kResnet}) {
    const auto it = tc.shapes.find(task);
    if (it == tc.shapes.end()) continue;
    double share = 0;
    for (const nnr::sched::Cell& cell : state.plan.cells()) {
      if (state.task_of(cell) == task) share += static_cast<double>(cell.replicates);
    }
    share /= total_reps;
    nnr::hw::ExecutionContext hw_ctx(
        nnr::hw::v100(), toggles.mode,
        nnr::rng::make_channel_generator(base_seed(config.seed),
                                         nnr::rng::Channel::kScheduler, 0,
                                         toggles.scheduler_varies));
    KernelTotals one;
    KernelReplay replay(hw_ctx, one);
    nnr::nn::Model model = state.tasks[task].make_model();
    on_pool_worker([&] { replay_step(model, it->second, replay); });
    mixed.gemm_ms += share * one.gemm_ms;
    mixed.im2col_ms += share * one.im2col_ms;
    mixed.col2im_ms += share * one.col2im_ms;
    mixed.transpose_ms += share * one.transpose_ms;
    mixed.gemm_flop += share * one.gemm_flop;
    mixed.moved_bytes += share * one.moved_bytes;
  }
  m["tensor.gemm_nt.ms_per_step"] = mixed.gemm_ms;
  m["tensor.im2col.ms_per_step"] = mixed.im2col_ms;
  m["tensor.col2im.ms_per_step"] = mixed.col2im_ms;
  m["tensor.transpose.ms_per_step"] = mixed.transpose_ms;
  m["tensor.gemm_nt.gflop_per_step"] = mixed.gemm_flop / 1e9;
  m["tensor.bytes_moved_per_step"] = mixed.moved_bytes / (1024.0 * 1024.0);
  if (mixed.gemm_ms > 0) {
    m["tensor.gemm_nt.gflops"] = mixed.gemm_flop / 1e9 / (mixed.gemm_ms / 1e3);
  }
  out.notes.push_back(
      "tensor.gemm_nt.gflop_per_step and tensor.bytes_moved_per_step are "
      "computed from the replayed shapes, not measured");
  out.notes.push_back(strf("traced %lld replicates in %lld batches; reference "
                           "(untraced) %lld in %lld",
                           static_cast<long long>(traced.replicates),
                           static_cast<long long>(traced.batches),
                           static_cast<long long>(reference.replicates),
                           static_cast<long long>(reference.batches)));
}

}  // namespace

RunOutput run_training(const RunConfig& config) {
  RunOutput out;
  const Workload& w = *config.workload;
  std::unique_ptr<TrainState> state;
  out.metrics["setup_s"] = timed_setups(SpeedProbe(worker_threads(w)), [&] {
    state.reset();
    nnr::runtime::ThreadPool::set_global_threads(worker_threads(w));
    state = std::make_unique<TrainState>(w, config.seed);
  });

  Trainer trainer(w, *state, out);
  trainer.use_timed_runners();
  const std::int64_t min_samples = min_samples_for(0.9);
  if (!config.trace) {
    // An untimed warm-up batch (it still sets the reference bytes), then
    // the timed phase.
    const Phase warm_up = trainer.run_phase(0, 0, nullptr);
    trainer.clear_samples();
    const Phase phase = trainer.run_phase(config.seconds, min_samples, nullptr);
    out.attempted = warm_up.replicates + phase.replicates;
    report_rate(phase, out);
    report_latency(trainer.sink().all(), out);
    for (const std::size_t task : {kSmallCnn, kResnet}) {
      out.task_p50_ms.emplace_back(state->tasks[task].name,
                                   percentile(trainer.sink().for_tag(task), 0.5));
    }
    out.notes.push_back(strf("%lld replicates in %lld batches of %lld, %.3f s timed, T=%d",
                             static_cast<long long>(phase.replicates),
                             static_cast<long long>(phase.batches),
                             static_cast<long long>(state->plan.total_replicates()),
                             static_cast<double>(phase.timed_ns) / 1e9,
                             trainer.threads()));
  } else {
    // The first batch runs untraced and sets the reference bytes. After it,
    // untraced and traced batches alternate until the time is up, so both
    // rates see the same machine state; every batch must reproduce the
    // reference bytes.
    TraceContext tc;
    const Phase warm_up = trainer.run_phase(0, 0, nullptr);
    Phase reference;
    Phase traced;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
    while (traced.batches == 0 || now_ns() < deadline) {
      trainer.use_timed_runners();
      reference += trainer.run_phase(0, 0, nullptr);
      trainer.use_traced_runners(tc);
      traced += trainer.run_phase(0, 0, &tc);
    }
    out.attempted = warm_up.replicates + reference.replicates + traced.replicates;
    report_traced(config, *state, tc, reference, traced, out);
    const std::string path = config.work_dir + "/trace-" + w.name + ".json";
    if (tc.tracer.write_chrome_json(path)) out.notes.push_back("spans written to " + path);
  }
  out.metrics["peak_rss_mb"] = static_cast<double>(peak_rss_kib()) / 1024.0;
  return out;
}

}  // namespace perfbench
