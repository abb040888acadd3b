// The submission journal's contract: every lifecycle transition is one
// committed batch, the queue bound is explicit backpressure, campaign
// names are unique forever, and a reopened journal sees exactly the
// committed transitions. Also pins the incremental-compaction benefit
// the journal's two-table split was designed for.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "service/journal.h"
#include "support/temp_dir.h"

namespace goofi::service {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (TestTempRoot() / "goofi_journal_test").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string Ini(const std::string& name) {
    return "[campaign]\nname = " + name + "\ntarget = thor_rd\n";
  }

  std::string dir_;
};

TEST_F(JournalTest, SubmitClaimCompleteLifecycle) {
  auto journal = SubmissionJournal::Open(dir_, 8);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();

  auto id_a = journal->Submit("alpha", Ini("alpha"), 2);
  ASSERT_TRUE(id_a.ok());
  auto id_b = journal->Submit("beta", Ini("beta"), 1);
  ASSERT_TRUE(id_b.ok());
  EXPECT_LT(*id_a, *id_b);
  EXPECT_EQ(journal->ActiveCount(), 2u);

  // FIFO claim order, oldest id first.
  auto claimed = journal->ClaimNext();
  ASSERT_TRUE(claimed.ok());
  ASSERT_TRUE(claimed->has_value());
  EXPECT_EQ((*claimed)->id, *id_a);
  EXPECT_EQ((*claimed)->name, "alpha");
  EXPECT_EQ((*claimed)->config_text, Ini("alpha"));
  EXPECT_EQ((*claimed)->jobs, 2u);
  EXPECT_EQ((*claimed)->state, kStateRunning);

  ASSERT_TRUE(journal->MarkCompleted(*id_a).ok());
  auto done = journal->Find(*id_a);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, kStateCompleted);
  // Completion frees a queue slot; beta is still active.
  EXPECT_EQ(journal->ActiveCount(), 1u);

  auto next = journal->ClaimNext();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->id, *id_b);
  ASSERT_TRUE(journal->MarkFailed(*id_b, "target wedged").ok());
  auto failed = journal->Find(*id_b);
  ASSERT_TRUE(failed.ok());
  EXPECT_EQ(failed->state, kStateFailed);
  EXPECT_EQ(failed->error, "target wedged");

  // Drained queue.
  auto empty = journal->ClaimNext();
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->has_value());
}

TEST_F(JournalTest, QueueBoundIsExplicitBackpressure) {
  auto journal = SubmissionJournal::Open(dir_, 2);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Submit("a", Ini("a"), 1).ok());
  ASSERT_TRUE(journal->Submit("b", Ini("b"), 1).ok());
  auto full = journal->Submit("c", Ini("c"), 1);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), ErrorCode::kQueueFull);

  // Claiming does not free a slot (running still counts); a terminal
  // transition does.
  ASSERT_TRUE(journal->ClaimNext().ok());
  EXPECT_EQ(journal->Submit("c", Ini("c"), 1).status().code(),
            ErrorCode::kQueueFull);
  ASSERT_TRUE(journal->MarkCompleted(1).ok());
  EXPECT_TRUE(journal->Submit("c", Ini("c"), 1).ok());
}

TEST_F(JournalTest, DuplicateNamesAreRejectedForever) {
  auto journal = SubmissionJournal::Open(dir_, 8);
  ASSERT_TRUE(journal.ok());
  auto id = journal->Submit("dup", Ini("dup"), 1);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(journal->Submit("dup", Ini("dup"), 1).status().code(),
            ErrorCode::kAlreadyExists);
  // Even after the first run finished: the campaign's results database
  // directory still exists, so the name stays taken.
  ASSERT_TRUE(journal->MarkCompleted(*id).ok());
  EXPECT_EQ(journal->Submit("dup", Ini("dup"), 1).status().code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(JournalTest, CancelOnlyFromQueuedOrRunning) {
  auto journal = SubmissionJournal::Open(dir_, 8);
  ASSERT_TRUE(journal.ok());
  auto id = journal->Submit("x", Ini("x"), 1);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(journal->MarkCancelled(*id).ok());
  EXPECT_EQ(journal->Find(*id)->state, kStateCancelled);
  // Terminal states are final.
  EXPECT_EQ(journal->MarkCancelled(*id).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(journal->MarkCancelled(999).code(), ErrorCode::kNotFound);
}

TEST_F(JournalTest, ReopenSeesCommittedTransitionsAndContinuesIds) {
  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  {
    auto journal = SubmissionJournal::Open(dir_, 8);
    ASSERT_TRUE(journal.ok());
    id_a = *journal->Submit("a", Ini("a"), 1);
    id_b = *journal->Submit("b", Ini("b"), 3);
    ASSERT_TRUE(journal->ClaimNext().ok());  // a -> running
  }
  auto journal = SubmissionJournal::Open(dir_, 8);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  // The killed daemon's in-flight campaign is visible as "running" —
  // the restart path resumes it rather than re-queueing it.
  std::vector<Submission> running = journal->InState(kStateRunning);
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].id, id_a);
  std::vector<Submission> queued = journal->InState(kStateQueued);
  ASSERT_EQ(queued.size(), 1u);
  EXPECT_EQ(queued[0].id, id_b);
  EXPECT_EQ(queued[0].jobs, 3u);
  // Ids keep monotonically increasing across lives.
  auto id_c = journal->Submit("c", Ini("c"), 1);
  ASSERT_TRUE(id_c.ok());
  EXPECT_GT(*id_c, id_b);
}

// The journal is the poster child for incremental compaction: the
// SubmissionQueue table churns on every transition while ServiceMeta is
// written once at creation. After the first Compact() both tables have
// snapshots; later Compact() calls must rewrite only the dirty queue
// table and leave the clean meta table's snapshot file untouched.
TEST_F(JournalTest, CompactionSkipsCleanMetaTable) {
  auto journal = SubmissionJournal::Open(dir_, 32);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal->Submit("one", Ini("one"), 1).ok());
  ASSERT_TRUE(journal->database().Compact().ok());

  // The meta row is inserted before AttachWal, so it lives in the
  // generation-0 snapshot and the table has been clean ever since:
  // the first Compact() keeps it at generation 0 while the churned
  // queue table gets a fresh snapshot.
  const std::uint64_t meta_gen =
      journal->database().table_snapshot_generation(kServiceMetaTable);
  const std::uint64_t queue_gen =
      journal->database().table_snapshot_generation(kSubmissionQueueTable);
  EXPECT_EQ(meta_gen, 0u);
  ASSERT_GT(queue_gen, 0u);
  const fs::path meta_snapshot =
      fs::path(dir_) /
      (std::string(kServiceMetaTable) + "." + std::to_string(meta_gen) +
       ".snap");
  ASSERT_TRUE(fs::exists(meta_snapshot));
  const auto meta_mtime = fs::last_write_time(meta_snapshot);

  // More queue churn, then compact again.
  ASSERT_TRUE(journal->Submit("two", Ini("two"), 1).ok());
  ASSERT_TRUE(journal->ClaimNext().ok());
  EXPECT_TRUE(journal->database().table_dirty(kSubmissionQueueTable));
  EXPECT_FALSE(journal->database().table_dirty(kServiceMetaTable));
  ASSERT_TRUE(journal->database().Compact().ok());

  // Queue snapshot advanced, meta snapshot is the very same file.
  EXPECT_GT(journal->database().table_snapshot_generation(
                kSubmissionQueueTable),
            queue_gen);
  EXPECT_EQ(journal->database().table_snapshot_generation(kServiceMetaTable),
            meta_gen);
  ASSERT_TRUE(fs::exists(meta_snapshot));
  EXPECT_EQ(fs::last_write_time(meta_snapshot), meta_mtime);

  // And the incrementally-compacted directory still reopens cleanly.
  journal = SubmissionJournal::Open(dir_, 32);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->All().size(), 2u);
}

}  // namespace
}  // namespace goofi::service
