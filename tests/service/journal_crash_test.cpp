// Crash sweeps for the submission journal, in the image of the storage
// engine's own harness (tests/db/wal_crash_test.cpp): every lifecycle
// transition is one group commit, so after ANY torn write or truncated
// log the reopened journal must hold exactly the transitions that were
// acknowledged — no submission lost, none duplicated, none half-applied.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/wal.h"
#include "service/journal.h"
#include "support/temp_dir.h"

namespace goofi::service {
namespace {

namespace fs = std::filesystem;

// ---- fault-injecting log file (same model as the engine's harness) -----

struct FaultState {
  explicit FaultState(std::uint64_t budget) : remaining(budget) {}
  std::uint64_t remaining;
  bool dead = false;
};

class FaultyFile : public db::wal::WalFile {
 public:
  FaultyFile(std::unique_ptr<db::wal::WalFile> inner,
             std::shared_ptr<FaultState> state)
      : inner_(std::move(inner)), state_(std::move(state)) {}

  Status Append(std::string_view bytes) override {
    if (state_->dead) return DataLossError("simulated crash");
    if (bytes.size() <= state_->remaining) {
      state_->remaining -= bytes.size();
      return inner_->Append(bytes);
    }
    const std::string_view torn = bytes.substr(0, state_->remaining);
    state_->remaining = 0;
    state_->dead = true;
    (void)inner_->Append(torn);
    (void)inner_->Sync();
    return DataLossError("simulated crash (torn write)");
  }

  Status Sync() override {
    if (state_->dead) return DataLossError("simulated crash");
    return inner_->Sync();
  }

 private:
  std::unique_ptr<db::wal::WalFile> inner_;
  std::shared_ptr<FaultState> state_;
};

db::wal::WalFileFactory FaultyFactory(std::shared_ptr<FaultState> state) {
  return [state](const std::string& path)
             -> Result<std::unique_ptr<db::wal::WalFile>> {
    auto inner = db::wal::OpenLogFile(path);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<db::wal::WalFile>(
        new FaultyFile(std::move(*inner), state));
  };
}

// ---- scripted daemon life ----------------------------------------------

// Canonical dump of the queue; equal dumps = identical journal state.
std::string DumpJournal(SubmissionJournal& journal) {
  std::string dump;
  for (const Submission& s : journal.All()) {
    dump += std::to_string(s.id) + "|" + s.name + "|" + s.state + "|" +
            s.error + "|" + std::to_string(s.jobs) + "\n";
  }
  return dump;
}

// The daemon's journal traffic, one committed transition per step:
// submissions, claims, completions, a failure, a cancellation.
constexpr int kSteps = 12;

Status ApplyStep(SubmissionJournal& journal, int step) {
  const auto ini = [](const std::string& name) {
    return "[campaign]\nname = " + name + "\ntarget = thor_rd\n";
  };
  switch (step) {
    case 0: return journal.Submit("s1", ini("s1"), 1).status();
    case 1: return journal.Submit("s2", ini("s2"), 2).status();
    case 2: return journal.ClaimNext().status();          // s1 running
    case 3: return journal.Submit("s3", ini("s3"), 4).status();
    case 4: return journal.MarkCompleted(1);
    case 5: return journal.ClaimNext().status();          // s2 running
    case 6: return journal.Submit("s4", ini("s4"), 1).status();
    case 7: return journal.MarkFailed(2, "target wedged");
    case 8: return journal.MarkCancelled(4);              // s4 queued
    case 9: return journal.ClaimNext().status();          // s3 running
    case 10: return journal.Submit("s5", ini("s5"), 2).status();
    case 11: return journal.MarkCompleted(3);
  }
  return Status::Ok();
}

// A freshly created (and committed) journal directory to crash against.
void BuildProtoJournal(const std::string& dir, std::string* creation_dump) {
  fs::remove_all(dir);
  auto journal = SubmissionJournal::Open(dir, 32);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  *creation_dump = DumpJournal(*journal);
}

void CopyDirectory(const std::string& src, const std::string& dst) {
  fs::remove_all(dst);
  fs::create_directories(dst);
  for (const auto& entry : fs::directory_iterator(src)) {
    fs::copy_file(entry.path(),
                  fs::path(dst) / entry.path().filename().string());
  }
}

// Structural invariants no crash may break: unique ids, unique names,
// every state a known lifecycle state.
void CheckInvariants(SubmissionJournal& journal) {
  std::set<std::uint64_t> ids;
  std::set<std::string> names;
  for (const Submission& s : journal.All()) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate id " << s.id;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_TRUE(s.state == kStateQueued || s.state == kStateRunning ||
                s.state == kStateCompleted || s.state == kStateFailed ||
                s.state == kStateCancelled)
        << "bad state " << s.state;
  }
}

// ---- the sweeps ---------------------------------------------------------

// Torn-write sweep: the log file dies mid-append at every byte budget.
// Acknowledged transitions must survive; the half-written one must
// vanish entirely.
TEST(JournalCrashTest, TornWriteSweepKeepsEveryAcknowledgedTransition) {
  const fs::path base = TestTempRoot() / "goofi_journal_torn";
  fs::remove_all(base);
  std::string creation_dump;
  BuildProtoJournal((base / "proto").string(), &creation_dump);

  // Size the budget sweep off an undamaged life.
  std::uint64_t appended = 0;
  {
    const std::string intact = (base / "intact").string();
    CopyDirectory((base / "proto").string(), intact);
    const std::uint64_t before = fs::file_size(fs::path(intact) / "wal.log");
    auto journal = SubmissionJournal::Open(intact, 32);
    ASSERT_TRUE(journal.ok());
    for (int step = 0; step < kSteps; ++step) {
      ASSERT_TRUE(ApplyStep(*journal, step).ok()) << "step " << step;
    }
    appended = fs::file_size(fs::path(intact) / "wal.log") - before;
  }
  ASSERT_GT(appended, 0u);

  constexpr int kBudgets = 48;
  for (int i = 0; i <= kBudgets; ++i) {
    // Unaligned budgets so most crashes land mid-frame.
    const std::uint64_t budget =
        appended * static_cast<std::uint64_t>(i) / kBudgets +
        static_cast<std::uint64_t>(i % 5);
    const std::string dir =
        (base / ("budget" + std::to_string(i))).string();
    CopyDirectory((base / "proto").string(), dir);

    auto state = std::make_shared<FaultState>(budget);
    auto journal = SubmissionJournal::Open(dir, 32, FaultyFactory(state));
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    std::string acknowledged = DumpJournal(*journal);
    for (int step = 0; step < kSteps; ++step) {
      if (!ApplyStep(*journal, step).ok()) break;  // the crash
      acknowledged = DumpJournal(*journal);
    }

    // The next daemon life replays the real file.
    auto reopened = SubmissionJournal::Open(dir, 32);
    ASSERT_TRUE(reopened.ok())
        << "budget=" << budget << ": " << reopened.status().ToString();
    EXPECT_EQ(DumpJournal(*reopened), acknowledged) << "budget=" << budget;
    CheckInvariants(*reopened);
  }
  fs::remove_all(base);
}

// Cut-point sweep: the log is truncated at every sampled byte offset
// (SIGKILL plus a dying disk). Recovery must land on the youngest
// committed transition at or below the cut.
TEST(JournalCrashTest, CutPointSweepRecoversToACommittedTransition) {
  const fs::path base = TestTempRoot() / "goofi_journal_cut";
  fs::remove_all(base);
  std::string creation_dump;
  const std::string full = (base / "full").string();
  BuildProtoJournal(full, &creation_dump);

  // Replay the scripted life, recording (log size, dump) at every
  // commit boundary. Boundary floor: the creation state survives any
  // damage to the log alone (it lives in the initial snapshots).
  std::vector<std::pair<std::uint64_t, std::string>> boundaries;
  boundaries.emplace_back(0, creation_dump);
  {
    auto journal = SubmissionJournal::Open(full, 32);
    ASSERT_TRUE(journal.ok());
    boundaries.emplace_back(fs::file_size(fs::path(full) / "wal.log"),
                            creation_dump);
    for (int step = 0; step < kSteps; ++step) {
      ASSERT_TRUE(ApplyStep(*journal, step).ok()) << "step " << step;
      boundaries.emplace_back(fs::file_size(fs::path(full) / "wal.log"),
                              DumpJournal(*journal));
    }
  }
  auto log = db::wal::ReadFileBytes((fs::path(full) / "wal.log").string());
  ASSERT_TRUE(log.ok());
  const std::uint64_t total = log->size();
  ASSERT_EQ(total, boundaries.back().first);

  std::set<std::uint64_t> cuts;
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 128);
  for (std::uint64_t cut = 0; cut <= total; cut += stride) cuts.insert(cut);
  for (const auto& [offset, dump] : boundaries) {
    for (std::uint64_t delta = 0; delta <= 3; ++delta) {
      if (offset + delta <= total) cuts.insert(offset + delta);
      if (offset >= delta) cuts.insert(offset - delta);
    }
  }

  const std::string copy = (base / "cut").string();
  for (const std::uint64_t cut : cuts) {
    CopyDirectory(full, copy);
    {
      std::ofstream out(fs::path(copy) / "wal.log",
                        std::ios::binary | std::ios::trunc);
      out.write(log->data(), static_cast<std::streamsize>(cut));
    }
    auto reopened = SubmissionJournal::Open(copy, 32);
    ASSERT_TRUE(reopened.ok())
        << "cut=" << cut << ": " << reopened.status().ToString();
    std::string expected;
    for (const auto& [offset, dump] : boundaries) {
      if (offset <= cut) expected = dump;
    }
    EXPECT_EQ(DumpJournal(*reopened), expected) << "cut=" << cut;
    CheckInvariants(*reopened);
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace goofi::service
