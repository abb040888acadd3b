// Self-time arithmetic on synthetic span trees, and the quantile
// helper the benchmark reports percentiles with.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "metrics.h"
#include "trace.h"

namespace perfbench {
namespace {

using trace::SpanRecord;

SpanRecord MakeSpan(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t experiment = -1) {
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.experiment = experiment;
  return span;
}

TEST(SelfTimeTest, ChildrenAreSubtractedFromTheirParentOnly) {
  // experiment [0,100) holds scan_read [10,30) and to_end [40,90);
  // to_end holds restore [50,60).
  const std::vector<SpanRecord> spans = {
      MakeSpan("experiment", 1, 0, 0, 100),
      MakeSpan("scan_read", 2, 1, 10, 30),
      MakeSpan("to_end", 3, 1, 40, 90),
      MakeSpan("restore", 4, 3, 50, 60),
  };
  const auto totals = trace::Aggregate(spans);
  EXPECT_DOUBLE_EQ(totals.at("experiment").total_s, 100e-9);
  EXPECT_DOUBLE_EQ(totals.at("experiment").self_s, 30e-9);
  EXPECT_DOUBLE_EQ(totals.at("scan_read").self_s, 20e-9);
  EXPECT_DOUBLE_EQ(totals.at("to_end").self_s, 40e-9);
  EXPECT_DOUBLE_EQ(totals.at("restore").self_s, 10e-9);
  // The self times of a tree add up to its root's duration.
  double self_sum = 0.0;
  for (const auto& [name, entry] : totals) self_sum += entry.self_s;
  EXPECT_DOUBLE_EQ(self_sum, 100e-9);
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  // Children on other threads may overlap each other and outlive the
  // parent; only their union inside the parent's interval is covered.
  const std::vector<SpanRecord> spans = {
      MakeSpan("parent", 1, 0, 100, 200),
      MakeSpan("child", 2, 1, 90, 130),   // clipped to [100,130)
      MakeSpan("child", 3, 1, 120, 150),  // overlaps the first
      MakeSpan("child", 4, 1, 180, 260),  // clipped to [180,200)
  };
  const auto totals = trace::Aggregate(spans);
  EXPECT_DOUBLE_EQ(totals.at("parent").self_s, 30e-9);  // [150,180)
  EXPECT_EQ(totals.at("child").count, 3u);
}

TEST(SelfTimeTest, KeepFilterSelectsTotalsButChildrenStillCover) {
  const std::vector<SpanRecord> spans = {
      MakeSpan("experiment", 1, 0, 0, 50, 7),
      MakeSpan("init", 2, 1, 0, 20, -1),
      MakeSpan("experiment", 3, 0, 100, 150, -1),
  };
  const auto totals = trace::Aggregate(
      spans, [](const SpanRecord& span) { return span.experiment >= 0; });
  EXPECT_EQ(totals.at("experiment").count, 1u);
  EXPECT_DOUBLE_EQ(totals.at("experiment").self_s, 30e-9);
  EXPECT_EQ(totals.count("init"), 0u);
}

TEST(SpanTest, RecordsNestingAndTheAmbientParentAcrossThreads) {
  trace::Enable(true);
  trace::Collect();
  std::uint64_t outer_id = 0;
  {
    trace::Span outer("outer", 3);
    outer_id = outer.id();
    { trace::Span inner("inner", 3); }
    trace::SetAmbientParent(outer.id());
    std::thread([] { trace::Span helper("helper", 3); }).join();
    trace::SetAmbientParent(0);
  }
  trace::Enable(false);
  { trace::Span ignored("ignored"); }
  const std::vector<SpanRecord> spans = trace::Collect();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& span : spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    EXPECT_EQ(span.experiment, 3);
    if (std::string(span.name) == "outer") {
      EXPECT_EQ(span.parent, 0u);
    } else {
      EXPECT_EQ(span.parent, outer_id) << span.name;
    }
  }
}

TEST(QuantileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
