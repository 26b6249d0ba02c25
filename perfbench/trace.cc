#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

const char* Tracer::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = interned_.find(name);
  if (it != interned_.end()) return it->second;
  names_.push_back(name);
  const char* stable = names_.back().c_str();
  interned_.emplace(name, stable);
  return stable;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const Span& s : all) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"replicate\": %lld}}%s\n",
                 s.name, s.thread, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.replicate),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent,
                       std::int64_t replicate)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.replicate = replicate;
  span_.thread = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffu);
  span_.start_ns = now_ns();
}

void ScopedSpan::end() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  tracer_->record(span_);
  tracer_ = nullptr;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index_of.find(spans[i].parent);
    if (spans[i].parent != 0 && it != index_of.end()) {
      children[it->second].push_back(i);
    }
  }

  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t b = std::max(spans[c].start_ns, p.start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, p.end_ns);
      if (e > b) cover.emplace_back(b, e);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_b = 0;
    std::int64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : cover) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

}  // namespace perfbench
