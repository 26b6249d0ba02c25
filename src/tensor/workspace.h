// Workspace: a per-run scratch-tensor arena whose storage outlives the run.
//
// The hot training path (Conv2D, Dense, im2col lowering) needs the same
// intermediate buffers every step — patch matrices, NCHW<->[P,C] repacks,
// Dense's transposed output gradient, gradient staging. Allocating them per
// step puts the allocator on the critical path and blows the cache with cold
// pages; the Workspace instead hands out slot-addressed tensors that persist
// across steps. A slot whose element count changes (e.g. the last, short
// batch of an epoch) resizes its own storage in place and reallocates only
// to grow past its capacity.
//
// Storage also outlives the Workspace. Destroying one moves each slot's
// buffer to a spare list owned by the destroying thread. A new slot on that
// thread takes a spare whenever the list has one: the smallest that fits
// (an exact fit first of all), else the largest, grown to fit. Only a new
// slot on an empty list adds a buffer, so a thread never holds more buffers
// than it once had slots live at one time, and consecutive replicates on
// one thread reuse faulted-in pages instead of returning them to the OS and
// faulting them in again. A Workspace destroyed after its thread's list is
// gone (a static or thread_local one, at exit) frees its storage.
//
// Slots are keyed by (owner pointer, slot index), so layers address their
// scratch by `this` without coordinating globally. Contents are preserved
// between calls with an equal element count — Conv2D relies on this to hand
// its forward-pass patch matrix to backward() — but are otherwise
// unspecified: a new or resized slot may hold a previous run's values, so
// every user must fully overwrite a slot before reading it.
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
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  /// Moves every slot's storage to this thread's spare list.
  ~Workspace();

  /// The scratch tensor for (owner, slot), shaped to `shape`. Storage and
  /// contents persist while the element count is unchanged; a new slot, or
  /// one whose count changes, has unspecified contents.
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
