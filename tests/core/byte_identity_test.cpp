// Bytes-on-disk guard. A small fixed WAL campaign pair (engine_control
// SCIFI over a few hundred plant iterations, whose rows carry long env=
// lists, then a fib campaign) is run the way goofi_tool runs it, and
// every file of the database directory is hashed. The expected hashes
// were recorded from the build before the single-pass observation codec
// and slicing-by-8 CRC; any drift in the row text, the WAL framing or
// the snapshot format fails here rather than in a CI dump diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "core/goofi.h"
#include "support/temp_dir.h"

namespace goofi::core {
namespace {

namespace fs = std::filesystem;

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::map<std::string, std::uint64_t> HashDirectory(const fs::path& dir) {
  std::map<std::string, std::uint64_t> hashes;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    hashes[entry.path().filename().string()] = Fnv1a64(bytes);
  }
  return hashes;
}

void RunCampaign(db::Database& database, const std::string& dir,
                 const CampaignConfig& config,
                 target::WorkloadSpec workload) {
  target::ThorRdTarget target;
  ASSERT_TRUE(target.SetWorkload(std::move(workload)).ok());
  ASSERT_TRUE(StoreCampaign(database, config).ok());
  CampaignRunner runner(&database, &target);
  runner.set_checkpoint(dir, 32);  // goofi_tool's commit cadence
  auto summary = runner.Run(config.name);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->experiments_run, config.num_experiments);
}

TEST(ByteIdentityTest, FixedWalCampaignWritesTheRecordedBytes) {
  const fs::path dir = TestTempRoot() / "byte_identity_db";
  db::Database database;
  ASSERT_TRUE(database.AttachWal(dir.string()).ok());
  ASSERT_TRUE(CreateGoofiSchema(database).ok());
  ASSERT_TRUE(database.Commit().ok());
  {
    target::ThorRdTarget card;
    ASSERT_TRUE(RegisterTargetSystem(database, card, "card", "").ok());
  }

  CampaignConfig engine;
  engine.name = "engine";
  engine.workload = "engine_control";
  engine.num_experiments = 24;
  engine.seed = 14;
  engine.location_filters = {"cpu.regs.*"};
  engine.termination.max_iterations = 300;
  auto engine_workload = target::GetBuiltinWorkload("engine_control");
  ASSERT_TRUE(engine_workload.ok());
  RunCampaign(database, dir.string(), engine, *engine_workload);
  // Fold the first campaign into snapshot files, so the guard covers
  // the snapshot encoding as well as the log.
  ASSERT_TRUE(database.Compact().ok());

  CampaignConfig fib;
  fib.name = "fib";
  fib.workload = "fib";
  fib.num_experiments = 120;
  fib.seed = 3;
  fib.location_filters = {"cpu.*"};
  auto fib_workload = target::GetBuiltinWorkload("fib");
  ASSERT_TRUE(fib_workload.ok());
  RunCampaign(database, dir.string(), fib, *fib_workload);
  ASSERT_TRUE(database.Persist(dir.string()).ok());

  // The rows must read back through the decoder, not only hash equal.
  auto reopened = db::Database::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const CampaignConfig* config : {&engine, &fib}) {
    auto analysis = AnalyzeCampaign(*reopened, config->name, false);
    ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
    EXPECT_EQ(analysis->total, config->num_experiments);
  }

  // The engine rows are the long ones: one env= word per iteration.
  const db::Table* logged = reopened->FindTable(kLoggedSystemStateTable);
  const auto reference =
      logged->FindByUnique(0, db::Value::Text_("engine/reference"));
  ASSERT_TRUE(reference.has_value());
  auto observation = target::Observation::Deserialize(
      logged->row(*reference)[4].AsText());
  ASSERT_TRUE(observation.ok());
  EXPECT_EQ(observation->env_outputs.size(), 300u);

  const std::map<std::string, std::uint64_t> expected = {
      {"CampaignData.1.snap", 0x65b8684aae6022c0ull},
      {"LoggedSystemState.1.snap", 0x9e071b77034cc97cull},
      {"TargetLocation.1.snap", 0x078fe7c5cb447ab8ull},
      {"TargetSystemData.1.snap", 0xb8445ce9d7b7012aull},
      {"snapshot.manifest", 0x984c7f5cd7ca980dull},
      {"wal.log", 0x90bd134dc657282aull},
  };
  const std::map<std::string, std::uint64_t> actual = HashDirectory(dir);
  for (const auto& [name, hash] : actual) {
    const auto want = expected.find(name);
    EXPECT_TRUE(want != expected.end() && want->second == hash)
        << name << " hashes to 0x" << std::hex << hash;
  }
  EXPECT_EQ(actual.size(), expected.size());
}

}  // namespace
}  // namespace goofi::core
