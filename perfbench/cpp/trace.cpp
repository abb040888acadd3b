#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::atomic<std::uint64_t> g_ambient{0};

std::mutex g_store_mutex;
std::vector<SpanRecord> g_store;  // guarded by g_store_mutex

struct ThreadBuffer {
  std::uint32_t thread = g_next_thread.fetch_add(1);
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> open;  // ids of the spans open on this thread

  void Flush() {
    if (spans.empty()) return;
    std::lock_guard<std::mutex> lock(g_store_mutex);
    g_store.insert(g_store.end(), spans.begin(), spans.end());
    spans.clear();
  }
  ~ThreadBuffer() { Flush(); }
};

ThreadBuffer& Buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetAmbientParent(std::uint64_t id) { g_ambient.store(id); }

Span::Span(const char* name, std::int64_t experiment) {
  if (!enabled()) return;
  active_ = true;
  ThreadBuffer& buffer = Buffer();
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = buffer.open.empty() ? g_ambient.load() : buffer.open.back();
  record_.experiment = experiment;
  record_.thread = buffer.thread;
  buffer.open.push_back(record_.id);
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer& buffer = Buffer();
  buffer.open.pop_back();
  buffer.spans.push_back(record_);
}

std::vector<SpanRecord> Collect() {
  Buffer().Flush();
  std::lock_guard<std::mutex> lock(g_store_mutex);
  return std::exchange(g_store, {});
}

std::map<std::string, NameTotals> Aggregate(
    const std::vector<SpanRecord>& spans, bool (*keep)(const SpanRecord&)) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, NameTotals> totals;
  for (const SpanRecord& span : spans) {
    if (keep != nullptr && !keep(span)) continue;
    const std::int64_t duration = span.end_ns - span.start_ns;
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    NameTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(duration - covered_ns) * 1e-9;
  }
  return totals;
}

bool WriteDump(const std::string& path,
               const std::vector<SpanRecord>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name\tid\tparent\tstart_ns\tend_ns\texperiment\tthread\n");
  for (const SpanRecord& span : spans) {
    std::fprintf(file, "%s\t%llu\t%llu\t%lld\t%lld\t%lld\t%u\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.experiment), span.thread);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench::trace
