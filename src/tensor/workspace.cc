#include "tensor/workspace.h"

#include <iterator>
#include <vector>

namespace nnr::tensor {

namespace {

using Buffer = std::vector<float>;

// Set when thread exit destroys this thread's spare list. A plain bool is
// constant-initialized and has no destructor, so a Workspace destroyed later
// in that exit can still read it.
thread_local bool t_spares_gone = false;

// Storage of this thread's destroyed Workspaces, keyed by capacity.
struct SpareList {
  std::multimap<std::size_t, Buffer> buffers;
  ~SpareList() { t_spares_gone = true; }
};

// This thread's spare list, or null once thread exit has destroyed it.
std::multimap<std::size_t, Buffer>* spares() {
  if (t_spares_gone) return nullptr;
  static thread_local SpareList list;
  return &list.buffers;
}

// A spare for an n-element slot: the smallest that fits, else the largest.
Buffer take_spare(std::size_t n) {
  auto* list = spares();
  if (list == nullptr || list->empty()) return {};
  auto it = list->lower_bound(n);
  if (it == list->end()) it = std::prev(it);
  Buffer storage = std::move(it->second);
  list->erase(it);
  return storage;
}

}  // namespace

Workspace::~Workspace() {
  auto* list = spares();
  if (list == nullptr) return;  // thread exit: the slots free their storage
  try {
    for (auto& [key, t] : slots_) {
      Buffer storage = t.take_storage();
      const std::size_t capacity = storage.capacity();
      list->emplace(capacity, std::move(storage));
    }
  } catch (...) {
    // Out of memory for a list node: the remaining slots free their storage.
  }
}

Tensor& Workspace::scratch(const void* owner, int slot, const Shape& shape) {
  const auto [it, added] = slots_.try_emplace({owner, slot});
  Tensor& t = it->second;
  const auto n = static_cast<std::size_t>(shape.numel());
  if (!added && t.data().size() == n) {
    if (!(t.shape() == shape)) t.reshape(shape);
    return t;
  }
  Buffer storage = added ? take_spare(n) : t.take_storage();
  if (storage.capacity() < n) storage = Buffer();  // free before growing
  storage.resize(n);
  t = Tensor(shape, std::move(storage));
  return t;
}

}  // namespace nnr::tensor
