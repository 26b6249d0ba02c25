// Workspace: a per-run scratch-tensor arena.
//
// The hot training path (Conv2D, Dense, im2col lowering) needs the same
// intermediate buffers every step — patch matrices, NCHW<->[P,C] repacks,
// Dense's transposed output gradient, gradient staging. Allocating them per
// step puts the allocator on the critical path and blows the cache with cold
// pages; the Workspace instead hands out slot-addressed tensors that persist
// across steps and are reallocated only when the requested element count
// changes (e.g. switching from the training to the evaluation batch size).
//
// Slots are keyed by (owner pointer, slot index), so layers address their
// scratch by `this` without coordinating globally. Contents are preserved
// between calls with an equal element count — Conv2D relies on this to hand
// its forward-pass patch matrix to backward() — but are otherwise
// unspecified: every user must fully overwrite a slot before reading it.
//
// A Workspace is single-threaded state: one per RunContext (one per
// replicate), never shared across concurrent runs.
#pragma once

#include <map>
#include <utility>

#include "tensor/tensor.h"

namespace nnr::tensor {

class Workspace {
 public:
  /// The scratch tensor for (owner, slot), shaped to `shape`. Storage is
  /// reused (and contents preserved) when the element count is unchanged;
  /// otherwise the slot is reallocated with zeroed contents.
  [[nodiscard]] Tensor& scratch(const void* owner, int slot,
                                const Shape& shape);

  /// Number of live slots (observability / tests).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  std::map<std::pair<const void*, int>, Tensor> slots_;
};

}  // namespace nnr::tensor
