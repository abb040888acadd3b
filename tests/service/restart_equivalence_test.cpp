// The service's core robustness claim, tested at the executor level:
// a campaign interrupted at ANY point — graceful drain or a log cut at
// an arbitrary byte offset (SIGKILL) — and then resumed by a later
// daemon life finishes with a results database BYTE-identical to an
// uninterrupted one-shot run, at any worker count in either life.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "db/wal.h"
#include "service/executor.h"
#include "support/temp_dir.h"

namespace goofi::service {
namespace {

namespace fs = std::filesystem;

// 70 experiments = two full cadence commits (32, 64) plus a final
// partial batch, so interruptions land in every regime.
constexpr const char* kIni =
    "[campaign]\n"
    "name = equiv\n"
    "target = thor_rd\n"
    "technique = scifi\n"
    "workload = fib\n"
    "experiments = 70\n"
    "seed = 17\n"
    "location[] = cpu.regs.*\n";

std::string TempDir(const std::string& leaf) {
  const std::string dir =
      (TestTempRoot() / ("goofi_restart_equiv_" + leaf)).string();
  fs::remove_all(dir);
  return dir;
}

// Every file in the results directory, name -> bytes. Byte-identity of
// this map is the strongest form of the equivalence claim.
std::map<std::string, std::string> DumpDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto bytes = db::wal::ReadFileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

Status RunToCompletion(const std::string& dir, std::size_t jobs) {
  ExecutionRequest request;
  request.db_dir = dir;
  request.config_text = kIni;
  request.jobs = jobs;
  return ExecuteSubmission(request).status();
}

// Run until `drain_at` experiments have been reported, then drain —
// the daemon's SIGTERM path.
Status RunUntilDrain(const std::string& dir, std::size_t jobs,
                     std::size_t drain_at) {
  core::CampaignController controller;
  ExecutionRequest request;
  request.db_dir = dir;
  request.config_text = kIni;
  request.jobs = jobs;
  request.controller = &controller;
  request.progress = [&controller, drain_at](core::ProgressInfo info) {
    if (info.experiments_done >= drain_at) controller.Drain();
  };
  return ExecuteSubmission(request).status();
}

class RestartEquivalenceTest : public ::testing::Test {
 protected:
  // The uninterrupted reference, shared across tests in this process.
  static void SetUpTestSuite() {
    reference_dir_ = new std::string(TempDir("oneshot"));
    ASSERT_TRUE(RunToCompletion(*reference_dir_, 1).ok());
    reference_files_ =
        new std::map<std::string, std::string>(DumpDirectory(*reference_dir_));
    ASSERT_TRUE(reference_files_->count("wal.log"));
    ASSERT_GT(reference_files_->at("wal.log").size(),
              db::wal::kWalHeaderSize);
  }
  static void TearDownTestSuite() {
    fs::remove_all(*reference_dir_);
    delete reference_dir_;
    delete reference_files_;
    reference_dir_ = nullptr;
    reference_files_ = nullptr;
  }

  static std::string* reference_dir_;
  static std::map<std::string, std::string>* reference_files_;
};

std::string* RestartEquivalenceTest::reference_dir_ = nullptr;
std::map<std::string, std::string>* RestartEquivalenceTest::reference_files_ =
    nullptr;

// Precondition for everything else: worker count alone never changes
// the bytes (the sharded runner's guarantee, surfaced at service level).
TEST_F(RestartEquivalenceTest, WorkerCountDoesNotChangeTheBytes) {
  const std::string dir = TempDir("jobs2");
  ASSERT_TRUE(RunToCompletion(dir, 2).ok());
  EXPECT_EQ(DumpDirectory(dir), *reference_files_);
  fs::remove_all(dir);
}

// Drain (SIGTERM) at points before, on, and after cadence commits; the
// resumed life — at the same or a different worker count — must land
// on the reference bytes exactly.
TEST_F(RestartEquivalenceTest, DrainThenResumeMatchesOneShot) {
  const std::size_t drain_points[] = {5, 32, 47, 64};
  std::size_t resume_jobs = 1;
  for (const std::size_t drain_at : drain_points) {
    const std::string dir =
        TempDir("drain" + std::to_string(drain_at));
    ASSERT_TRUE(RunUntilDrain(dir, 1, drain_at).ok()) << drain_at;
    // The drained database must differ from the finished one (the run
    // really was interrupted)...
    ASSERT_NE(DumpDirectory(dir), *reference_files_) << drain_at;
    // ...and one resume, at an alternating worker count, finishes it.
    ASSERT_TRUE(RunToCompletion(dir, resume_jobs).ok()) << drain_at;
    EXPECT_EQ(DumpDirectory(dir), *reference_files_)
        << "drain_at=" << drain_at << " resume_jobs=" << resume_jobs;
    resume_jobs = resume_jobs == 1 ? 2 : 1;
    fs::remove_all(dir);
  }
}

// A parallel fleet drains the same way.
TEST_F(RestartEquivalenceTest, ParallelDrainThenResumeMatchesOneShot) {
  const std::string dir = TempDir("pdrain");
  ASSERT_TRUE(RunUntilDrain(dir, 2, 20).ok());
  ASSERT_TRUE(RunToCompletion(dir, 2).ok());
  EXPECT_EQ(DumpDirectory(dir), *reference_files_);
  fs::remove_all(dir);
}

// SIGKILL at arbitrary instants, modelled as the reference log cut at
// sampled byte offsets (including inside the header and mid-frame).
// Reopen + resume must rebuild the reference bytes exactly.
TEST_F(RestartEquivalenceTest, LogCutThenResumeMatchesOneShot) {
  const std::string& log = reference_files_->at("wal.log");
  std::vector<std::uint64_t> cuts = {0, 7, db::wal::kWalHeaderSize};
  for (int i = 1; i <= 7; ++i) {
    cuts.push_back(log.size() * static_cast<std::uint64_t>(i) / 8 + i);
  }
  cuts.push_back(log.size() - 1);

  std::size_t resume_jobs = 2;
  const std::string dir = TempDir("cut");
  for (const std::uint64_t cut : cuts) {
    if (cut > log.size()) continue;
    // Clone the finished directory with the truncated log.
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& [name, bytes] : *reference_files_) {
      std::ofstream out(fs::path(dir) / name, std::ios::binary);
      if (name == "wal.log") {
        out.write(log.data(), static_cast<std::streamsize>(cut));
      } else {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
    }
    ASSERT_TRUE(RunToCompletion(dir, resume_jobs).ok()) << "cut=" << cut;
    EXPECT_EQ(DumpDirectory(dir), *reference_files_)
        << "cut=" << cut << " resume_jobs=" << resume_jobs;
    resume_jobs = resume_jobs == 1 ? 2 : 1;
  }
  fs::remove_all(dir);
}

// Resuming an already-finished campaign must be a byte no-op — the
// daemon calls this path when it is killed after a campaign's last
// commit but before the journal records completion.
TEST_F(RestartEquivalenceTest, ResumeOfCompletedCampaignChangesNothing) {
  const std::string dir = TempDir("done");
  ASSERT_TRUE(RunToCompletion(dir, 1).ok());
  ASSERT_TRUE(RunToCompletion(dir, 1).ok());
  EXPECT_EQ(DumpDirectory(dir), *reference_files_);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace goofi::service
