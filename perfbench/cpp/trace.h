// Span recording for the benchmark's traced runs.
//
// A span is one timed call into a layer: its name, start and end on the
// steady clock, the span that caused it, and the experiment it belongs
// to. Spans are buffered per thread (no lock on the hot path) and
// merged into one list when the thread exits or the benchmark collects
// them. Recording is off unless Enable(true) was called, so the
// untraced end-to-end runs pay one relaxed load per call site.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = "";     // a string literal; compared by content
  std::uint64_t id = 0;      // unique per process, never 0
  std::uint64_t parent = 0;  // 0 = root span
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t experiment = -1;  // plan index, -1 = not per experiment
  std::uint32_t thread = 0;      // small per-process thread number
};

void Enable(bool on);
bool enabled();

// Spans opened on a thread with no open span of its own take this one
// as parent. The serial traced loop sets it around the supervised
// experiment, whose target calls run on the watchdog's helper thread.
void SetAmbientParent(std::uint64_t id);

class Span {
 public:
  explicit Span(const char* name, std::int64_t experiment = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  bool active_ = false;
};

// Every span recorded so far, from every thread that has exited plus
// the calling thread, then clears the store. Call after all other
// recording threads are joined.
std::vector<SpanRecord> Collect();

// Per-name totals. Self time is a span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
// `keep` selects the spans that are totalled; every span still counts
// as a child of its parent.
struct NameTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, NameTotals> Aggregate(
    const std::vector<SpanRecord>& spans,
    bool (*keep)(const SpanRecord&) = nullptr);

// Tab-separated dump: name, id, parent, start_ns, end_ns, experiment,
// thread. Returns false when the file cannot be written.
bool WriteDump(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
