// Micro benchmarks for the tensor fast path: GEMM (blocked engine vs the
// seed reference loop, per accumulation order, plus gemm_nn's untransposed
// B), transpose, im2col, col2im, and a Conv2D forward/backward step at
// paper-relevant shapes, warm and as a new run's first step. Each row is
// the median of several timed blocks. Emits BENCH_tensor.json (path =
// argv[1], default ./BENCH_tensor.json) so the repo's perf trajectory is
// recorded and regressions are visible in CI.
//
// NNR_QUICK shrinks shapes and repetitions to smoke-test scale.
// NNR_THREADS sizes the host pool; the thread-scaling rows resize it
// explicitly per measurement.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/env.h"
#include "hw/device.h"
#include "hw/execution_context.h"
#include "nn/conv2d.h"
#include "rng/generator.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace {

using nnr::tensor::AccumOrder;
using nnr::tensor::KernelPolicy;
using nnr::tensor::Shape;
using nnr::tensor::Tensor;

struct Row {
  std::string name;
  std::string shape;
  int threads = 1;
  double ns_per_step = 0.0;
  double gflops = 0.0;          // 0 for pure data-movement kernels
  double speedup_vs_ref = 0.0;  // 0 when there is no reference pairing
};

struct Reps {
  int calls = 1;   // per timed block
  int blocks = 1;  // odd, so the median is one block's mean
};

// The median over reps.blocks timed blocks of the mean time of reps.calls
// calls, after one warmup call (which also first-touches any scratch). The
// median drops blocks that a busy host slowed down.
template <typename Fn>
double ns_per_step(Fn&& fn, Reps reps) {
  fn();
  std::vector<double> block_ns;
  for (int b = 0; b < reps.blocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps.calls; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    block_ns.push_back(static_cast<double>(ns) / reps.calls);
  }
  std::sort(block_ns.begin(), block_ns.end());
  return block_ns[block_ns.size() / 2];
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  nnr::rng::Generator gen(seed);
  Tensor t(shape);
  for (float& v : t.data()) v = gen.uniform(-1.0F, 1.0F);
  return t;
}

std::string dims(std::initializer_list<std::int64_t> ds) {
  std::string s;
  for (std::int64_t d : ds) {
    if (!s.empty()) s += "x";
    s += std::to_string(d);
  }
  return s;
}

void emit_json(const std::string& path, const std::vector<Row>& rows,
               bool quick) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tensor\",\n");
  std::fprintf(f, "  \"generated_by\": \"bench_micro_gemm\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                 "\"ns_per_step\": %.1f, \"gflops\": %.3f, "
                 "\"speedup_vs_reference\": %.2f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.threads, r.ns_per_step,
                 r.gflops, r.speedup_vs_ref, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = nnr::core::quick_mode();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_tensor.json";
  const std::int64_t gemm_dim = quick ? 64 : 256;
  const Reps reps{.calls = quick ? 2 : 10, .blocks = quick ? 3 : 11};
  std::vector<Row> rows;

  const KernelPolicy seq{
      .order = AccumOrder::kSequential, .cuda_cores = 0, .entropy = nullptr};
  const KernelPolicy tree{.order = AccumOrder::kPairwiseTree,
                          .cuda_cores = 5120,
                          .entropy = nullptr};
  nnr::rng::Generator scheduler(8);
  const KernelPolicy shuffled{.order = AccumOrder::kShardedShuffled,
                              .cuda_cores = 5120,
                              .entropy = &scheduler};

  // --- GEMM: blocked engine vs seed loop, single thread. -------------------
  {
    const std::int64_t d = gemm_dim;
    const Tensor a = random_tensor(Shape{d, d}, 1);
    const Tensor b = random_tensor(Shape{d, d}, 2);
    Tensor c(Shape{d, d});
    const double flops = 2.0 * static_cast<double>(d) * d * d;
    nnr::runtime::ThreadPool::set_global_threads(1);
    struct {
      const char* name;
      const KernelPolicy* policy;
    } variants[] = {{"gemm_seq", &seq},
                    {"gemm_tree", &tree},
                    {"gemm_shuffled", &shuffled}};
    for (const auto& v : variants) {
      const double ref_ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt_reference(a, b, c, *v.policy); }, reps);
      const double fast_ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt(a, b, c, *v.policy); }, reps);
      rows.push_back({std::string(v.name) + "_reference", dims({d, d, d}), 1,
                      ref_ns, flops / ref_ns, 0.0});
      rows.push_back({std::string(v.name) + "_blocked", dims({d, d, d}), 1,
                      fast_ns, flops / fast_ns, ref_ns / fast_ns});
      std::printf("%-24s %s  %10.0f ns  %6.2f GFLOP/s  (%.2fx vs reference)\n",
                  v.name, dims({d, d, d}).c_str(), fast_ns, flops / fast_ns,
                  ref_ns / fast_ns);
    }

    // --- gemm_nn: B read untransposed as [K, N]. The reference runs the
    // seed loop on B transposed once, outside the timed loop. -------------
    {
      Tensor b_nk(Shape{d, d});
      nnr::tensor::transpose(b, b_nk);
      const double ref_ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt_reference(a, b_nk, c, tree); }, reps);
      const double fast_ns =
          ns_per_step([&] { nnr::tensor::gemm_nn(a, b, c, tree); }, reps);
      rows.push_back({"gemm_tree_nn_reference", dims({d, d, d}), 1, ref_ns,
                      flops / ref_ns, 0.0});
      rows.push_back({"gemm_tree_nn_blocked", dims({d, d, d}), 1, fast_ns,
                      flops / fast_ns, ref_ns / fast_ns});
      std::printf("%-24s %s  %10.0f ns  %6.2f GFLOP/s  (%.2fx vs reference)\n",
                  "gemm_tree_nn", dims({d, d, d}).c_str(), fast_ns,
                  flops / fast_ns, ref_ns / fast_ns);
    }

    // --- Thread scaling of the blocked engine. -----------------------------
    for (int threads : {1, 2, 4}) {
      nnr::runtime::ThreadPool::set_global_threads(threads);
      const double ns = ns_per_step(
          [&] { nnr::tensor::gemm_nt(a, b, c, tree); }, reps);
      rows.push_back({"gemm_tree_blocked", dims({d, d, d}), threads, ns,
                      flops / ns, 0.0});
      std::printf("%-24s %s  %10.0f ns  %6.2f GFLOP/s  (threads=%d)\n",
                  "gemm_tree_blocked", dims({d, d, d}).c_str(), ns, flops / ns,
                  threads);
    }
    nnr::runtime::ThreadPool::set_global_threads(0);
  }
  // The rows below run on the pool as NNR_THREADS (or the hardware) sizes it.
  const int threads = nnr::runtime::ThreadPool::global().size();

  // --- Transpose of a patch x pixels matrix. ------------------------------
  {
    const std::int64_t r = quick ? 288 : 1152;  // 128 * 3 * 3
    const std::int64_t cdim = quick ? 512 : 2048;
    const Tensor in = random_tensor(Shape{r, cdim}, 3);
    Tensor out(Shape{cdim, r});
    const double ns =
        ns_per_step([&] { nnr::tensor::transpose(in, out); }, reps);
    rows.push_back({"transpose", dims({r, cdim}), threads, ns, 0.0, 0.0});
    std::printf("%-24s %s  %10.0f ns\n", "transpose", dims({r, cdim}).c_str(),
                ns);
  }

  // --- im2col, col2im + Conv2D step at the paper's CIFAR block shape. ------
  {
    const std::int64_t batch = quick ? 8 : 32;
    const nnr::tensor::ConvGeometry g{.batch = batch,
                                      .in_channels = 16,
                                      .in_h = 32,
                                      .in_w = 32,
                                      .kernel = 3,
                                      .stride = 1,
                                      .pad = 1};
    const Tensor input =
        random_tensor(Shape{g.batch, g.in_channels, g.in_h, g.in_w}, 4);
    Tensor cols(Shape{g.out_pixels(), g.patch_size()});
    const double ns =
        ns_per_step([&] { nnr::tensor::im2col(input, g, cols); }, reps);
    rows.push_back({"im2col_k3s1p1",
                    dims({batch, g.in_channels, g.in_h, g.in_w}), threads, ns,
                    0.0, 0.0});
    std::printf("%-24s %s  %10.0f ns\n", "im2col_k3s1p1",
                dims({batch, g.in_channels, g.in_h, g.in_w}).c_str(), ns);

    Tensor grad_input(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
    const double col2im_ns = ns_per_step(
        [&] { nnr::tensor::col2im(cols, g, grad_input); }, reps);
    rows.push_back({"col2im_k3s1p1",
                    dims({batch, g.in_channels, g.in_h, g.in_w}), threads,
                    col2im_ns, 0.0, 0.0});
    std::printf("%-24s %s  %10.0f ns\n", "col2im_k3s1p1",
                dims({batch, g.in_channels, g.in_h, g.in_w}).c_str(),
                col2im_ns);

    nnr::hw::ExecutionContext hw_ctx(nnr::hw::v100(),
                                     nnr::hw::DeterminismMode::kDeterministic,
                                     nnr::rng::Generator(5));
    nnr::tensor::Workspace workspace;
    nnr::nn::RunContext ctx{.hw = &hw_ctx,
                            .training = true,
                            .dropout = nullptr,
                            .workspace = &workspace};
    nnr::nn::Conv2D conv(16, 32, 3, 1, 1);
    nnr::rng::Generator init(6);
    conv.init_weights(init);
    const Tensor grad_out = random_tensor(Shape{batch, 32, 32, 32}, 7);
    const double fwd_ns = ns_per_step(
        [&] { (void)conv.forward(input, ctx); }, reps);
    const double bwd_ns = ns_per_step(
        [&] {
          (void)conv.forward(input, ctx);
          (void)conv.backward(grad_out, ctx);
        },
        reps);
    // The same step as a replicate's first: a fresh layer and arena on
    // every call, so each call also pays for its arena's storage. One call
    // per timed block: the row is the median call.
    const double new_run_ns = ns_per_step(
        [&] {
          nnr::tensor::Workspace run_ws;
          nnr::nn::RunContext run_ctx{.hw = &hw_ctx,
                                      .training = true,
                                      .dropout = nullptr,
                                      .workspace = &run_ws};
          nnr::nn::Conv2D run_conv(16, 32, 3, 1, 1);
          nnr::rng::Generator run_init(6);
          run_conv.init_weights(run_init);
          (void)run_conv.forward(input, run_ctx);
          (void)run_conv.backward(grad_out, run_ctx);
        },
        Reps{.calls = 1, .blocks = reps.blocks});
    rows.push_back({"conv2d_forward",
                    dims({batch, g.in_channels, g.in_h, g.in_w}), threads,
                    fwd_ns, 0.0, 0.0});
    rows.push_back({"conv2d_fwd_bwd",
                    dims({batch, g.in_channels, g.in_h, g.in_w}), threads,
                    bwd_ns, 0.0, 0.0});
    rows.push_back({"conv2d_fwd_bwd_new_run",
                    dims({batch, g.in_channels, g.in_h, g.in_w}), threads,
                    new_run_ns, 0.0, 0.0});
    std::printf("%-24s %s  %10.0f ns\n", "conv2d_forward",
                dims({batch, g.in_channels, g.in_h, g.in_w}).c_str(), fwd_ns);
    std::printf("%-24s %s  %10.0f ns\n", "conv2d_fwd_bwd",
                dims({batch, g.in_channels, g.in_h, g.in_w}).c_str(), bwd_ns);
    std::printf("%-24s %s  %10.0f ns\n", "conv2d_fwd_bwd_new_run",
                dims({batch, g.in_channels, g.in_h, g.in_w}).c_str(),
                new_run_ns);
  }

  emit_json(out_path, rows, quick);
  return 0;
}
