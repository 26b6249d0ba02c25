#include "sched/fleet_queue.h"

#include <cstdio>
#include <utility>

#include "serialize/atomic_file.h"
#include "serialize/binary_io.h"
#include "serialize/checkpoint.h"

namespace nnr::sched {

namespace {

/// Snapshot format: magic | u32 format | u64 count | count x item | trailer.
/// Items persist as (key, study, cell, replicate, state, outcome, attempts);
/// kLeased is written as kPending — leases are volatile by design.
constexpr std::string_view kSnapshotMagic = "NNRQ";
constexpr std::uint32_t kSnapshotFormat = 1;

}  // namespace

FleetQueue::FleetQueue(std::string snapshot_path)
    : snapshot_path_(std::move(snapshot_path)) {}

void FleetQueue::load() {
  if (snapshot_path_.empty()) return;
  const std::optional<std::string> bytes =
      serialize::read_file(snapshot_path_);
  if (!bytes.has_value()) return;  // no snapshot: fresh queue
  std::unordered_map<CellKey, Item, CellKeyHash> items;
  std::vector<CellKey> pending;
  try {
    serialize::detail::BufReader r(*bytes, kSnapshotMagic, snapshot_path_);
    if (r.get<std::uint32_t>() != kSnapshotFormat) return;
    const auto count = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < count; ++i) {
      Item item;
      item.work.key.hi = r.get<std::uint64_t>();
      item.work.key.lo = r.get<std::uint64_t>();
      const auto study_len = r.get<std::uint32_t>();
      item.work.study.resize(study_len);
      if (study_len > 0) r.get_bytes(item.work.study.data(), study_len);
      item.work.cell = r.get<std::uint32_t>();
      item.work.replicate = r.get<std::uint32_t>();
      item.state = static_cast<ItemState>(r.get<std::uint8_t>());
      item.outcome = static_cast<net::ReportOutcome>(r.get<std::uint8_t>());
      item.attempts = r.get<std::uint32_t>();
      // The previous daemon's leases died with it: a leased item reverts
      // to pending, the restart analogue of lease expiry.
      if (item.state == ItemState::kLeased) item.state = ItemState::kPending;
      if (item.state == ItemState::kPending) pending.push_back(item.work.key);
      items.emplace(item.work.key, std::move(item));
    }
  } catch (const serialize::CheckpointError&) {
    // Corrupt snapshot: discard. The coordinator resubmits; a lost queue
    // costs a round of submission, never a wedged daemon.
    std::fprintf(stderr,
                 "fleet_queue: discarding corrupt snapshot %s\n",
                 snapshot_path_.c_str());
    return;
  }
  items_ = std::move(items);
  pending_fifo_ = std::move(pending);
  fifo_head_ = 0;
}

void FleetQueue::persist() const {
  if (snapshot_path_.empty()) return;
  serialize::detail::BufWriter w(kSnapshotMagic);
  w.put(kSnapshotFormat);
  w.put(static_cast<std::uint64_t>(items_.size()));
  // Persist pending items in their FIFO order first, so a restored queue
  // hands out work in the order it was submitted; done items follow.
  const auto put_item = [&w](const Item& item) {
    w.put(item.work.key.hi);
    w.put(item.work.key.lo);
    w.put(static_cast<std::uint32_t>(item.work.study.size()));
    w.put_bytes(item.work.study.data(), item.work.study.size());
    w.put(item.work.cell);
    w.put(item.work.replicate);
    // A lease does not survive the daemon, so it is not worth a disk
    // write per FETCH: leased persists as pending.
    w.put(static_cast<std::uint8_t>(item.state == ItemState::kDone
                                        ? ItemState::kDone
                                        : ItemState::kPending));
    w.put(static_cast<std::uint8_t>(item.outcome));
    w.put(item.attempts);
  };
  std::unordered_map<CellKey, bool, CellKeyHash> written;
  for (std::size_t i = fifo_head_; i < pending_fifo_.size(); ++i) {
    const auto it = items_.find(pending_fifo_[i]);
    if (it == items_.end() || it->second.state == ItemState::kDone) continue;
    if (!written.emplace(it->first, true).second) continue;
    put_item(it->second);
  }
  for (const auto& [key, item] : items_) {
    if (written.count(key) != 0) continue;
    put_item(item);
  }
  // Best-effort: a lost snapshot costs a restart its queue, never a result.
  (void)serialize::write_file_atomic(snapshot_path_, w.finish());
}

void FleetQueue::push_pending(const CellKey& key) {
  pending_fifo_.push_back(key);
}

FleetQueue::SubmitStats FleetQueue::submit(
    const std::vector<FleetWorkItem>& items,
    const std::function<bool(const CellKey&)>& has_entry) {
  SubmitStats result;
  // A submit landing on a drained queue starts a fresh wave: clear the
  // previous wave's done items so [fleet] progress restarts at 0/N instead
  // of counting ghosts from last week's study.
  if (outstanding() == 0 && !items_.empty()) {
    items_.clear();
    pending_fifo_.clear();
    fifo_head_ = 0;
  }
  for (const FleetWorkItem& work : items) {
    if (items_.count(work.key) != 0) {
      ++result.duplicates;
      continue;
    }
    Item item;
    item.work = work;
    if (has_entry && has_entry(work.key)) {
      // The result already exists: the item is born done(served), so the
      // fleet's progress line counts it without any worker touching it.
      item.state = ItemState::kDone;
      item.outcome = net::ReportOutcome::kServed;
      ++result.already_done;
    } else {
      item.state = ItemState::kPending;
      push_pending(work.key);
      ++result.enqueued;
    }
    items_.emplace(work.key, std::move(item));
  }
  if (result.enqueued > 0 || result.already_done > 0) persist();
  return result;
}

std::optional<FleetWorkItem> FleetQueue::fetch_next(
    const std::function<bool(const CellKey&)>& available) {
  // Pop lazily: entries whose item moved on since being pushed are
  // skipped; entries that are merely unavailable right now stay for the
  // next fetch.
  for (std::size_t i = fifo_head_; i < pending_fifo_.size(); ++i) {
    const CellKey key = pending_fifo_[i];
    const auto it = items_.find(key);
    if (it == items_.end() || it->second.state != ItemState::kPending) {
      if (i == fifo_head_) ++fifo_head_;
      continue;
    }
    if (available && !available(key)) continue;  // claim-held: try later
    it->second.state = ItemState::kLeased;
    if (i == fifo_head_) {
      ++fifo_head_;
    } else {
      // Mark consumed mid-FIFO; the stale-entry skip above reclaims it.
      pending_fifo_[i] = pending_fifo_[fifo_head_];
      ++fifo_head_;
    }
    // No persist(): leased round-trips to pending across a restart anyway.
    return it->second.work;
  }
  if (fifo_head_ == pending_fifo_.size() && fifo_head_ > 0) {
    pending_fifo_.clear();
    fifo_head_ = 0;
  }
  return std::nullopt;
}

void FleetQueue::release_to_pending(const CellKey& key) {
  const auto it = items_.find(key);
  if (it == items_.end() || it->second.state != ItemState::kLeased) return;
  it->second.state = ItemState::kPending;
  push_pending(key);
  // No persist(): on disk the item never left pending.
}

bool FleetQueue::report(const CellKey& key, net::ReportOutcome outcome) {
  const auto it = items_.find(key);
  if (it == items_.end()) return false;
  Item& item = it->second;
  if (outcome == net::ReportOutcome::kFailed) {
    ++item.attempts;
    if (item.attempts < kMaxAttempts) {
      item.state = ItemState::kPending;
      push_pending(key);
    } else {
      item.state = ItemState::kDone;
      item.outcome = net::ReportOutcome::kFailed;
    }
  } else {
    item.state = ItemState::kDone;
    item.outcome = outcome;
  }
  persist();
  return true;
}

FleetQueue::Stats FleetQueue::stats() const {
  Stats s;
  s.total = items_.size();
  for (const auto& [key, item] : items_) {
    switch (item.state) {
      case ItemState::kPending:
        ++s.pending;
        break;
      case ItemState::kLeased:
        ++s.leased;
        break;
      case ItemState::kDone:
        ++s.done;
        switch (item.outcome) {
          case net::ReportOutcome::kTrained:
            ++s.trained;
            break;
          case net::ReportOutcome::kServed:
            ++s.served;
            break;
          case net::ReportOutcome::kFailed:
            ++s.failed;
            break;
        }
        break;
    }
  }
  return s;
}

std::uint64_t FleetQueue::outstanding() const {
  std::uint64_t n = 0;
  for (const auto& [key, item] : items_) {
    if (item.state != ItemState::kDone) ++n;
  }
  return n;
}

bool FleetQueue::is_leased(const CellKey& key) const {
  const auto it = items_.find(key);
  return it != items_.end() && it->second.state == ItemState::kLeased;
}

}  // namespace nnr::sched
