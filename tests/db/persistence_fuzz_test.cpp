// Property sweep: random databases (random schemas, rows full of
// hostile bytes — tabs, newlines, NULs, non-UTF8 blobs) must survive a
// save/load round trip bit-exactly, with constraints still enforced.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "db/database.h"
#include "support/temp_dir.h"
#include "util/rng.h"

namespace goofi::db {
namespace {

namespace fs = std::filesystem;

Value RandomValue(Rng& rng, ColumnType type, bool allow_null) {
  if (allow_null && rng.NextBool(0.15)) return Value::Null();
  auto random_bytes = [&rng]() {
    std::string bytes;
    const std::size_t length = rng.NextBelow(24);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    return bytes;
  };
  switch (type) {
    case ColumnType::kInteger:
      return Value::Integer(static_cast<std::int64_t>(rng.NextU64()));
    case ColumnType::kReal:
      return Value::Real(rng.NextDouble() * 1e12 - 5e11);
    case ColumnType::kText:
      return Value::Text_(random_bytes());
    case ColumnType::kBlob:
      return Value::Blob(random_bytes());
    case ColumnType::kAny:
      switch (rng.NextBelow(4)) {
        case 0: return Value::Integer(7);
        case 1: return Value::Real(1.5);
        case 2: return Value::Text_(random_bytes());
        default: return Value::Blob(random_bytes());
      }
  }
  return Value::Null();
}

class PersistenceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PersistenceFuzz, RandomDatabaseRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL +
          1442695040888963407ULL);
  Database database;

  // Parent table with a unique text key.
  TableSchema parent("parent");
  ASSERT_TRUE(parent.AddColumn({"key", ColumnType::kInteger, false, false,
                                true}).ok());
  ASSERT_TRUE(parent.AddColumn({"payload", ColumnType::kBlob, false, false,
                                false}).ok());
  ASSERT_TRUE(database.CreateTable(parent).ok());

  // Child table with a random extra column type.
  const ColumnType extra_types[] = {ColumnType::kInteger, ColumnType::kReal,
                                    ColumnType::kText, ColumnType::kBlob,
                                    ColumnType::kAny};
  const ColumnType extra = extra_types[rng.NextBelow(5)];
  TableSchema child("child");
  ASSERT_TRUE(child.AddColumn({"id", ColumnType::kInteger, false, false,
                               true}).ok());
  ASSERT_TRUE(child.AddColumn({"parent_key", ColumnType::kInteger, false,
                               false, false}).ok());
  ASSERT_TRUE(child.AddColumn({"extra", extra, false, false, false}).ok());
  ASSERT_TRUE(child.AddForeignKey({"parent_key", "parent", "key"}).ok());
  ASSERT_TRUE(database.CreateTable(child).ok());

  // Populate with random (sometimes colliding) rows.
  std::vector<std::int64_t> parent_keys;
  const int parents = 5 + static_cast<int>(rng.NextBelow(20));
  for (int i = 0; i < parents; ++i) {
    const std::int64_t key = static_cast<std::int64_t>(rng.NextBelow(1000));
    if (database.Insert("parent", {Value::Integer(key),
                                   RandomValue(rng, ColumnType::kBlob,
                                               true)}).ok()) {
      parent_keys.push_back(key);
    }
  }
  ASSERT_FALSE(parent_keys.empty());
  const int children = static_cast<int>(rng.NextBelow(40));
  for (int i = 0; i < children; ++i) {
    const Value parent_ref =
        rng.NextBool(0.2)
            ? Value::Null()
            : Value::Integer(
                  parent_keys[rng.NextBelow(parent_keys.size())]);
    (void)database.Insert("child", {Value::Integer(i), parent_ref,
                                    RandomValue(rng, extra, true)});
  }

  const std::string dir =
      (TestTempRoot() /
       ("goofi_persist_fuzz_" + std::to_string(GetParam()))).string();
  fs::remove_all(dir);
  ASSERT_TRUE(database.SaveToDirectory(dir).ok());
  auto loaded = Database::LoadFromDirectory(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (const char* table_name : {"parent", "child"}) {
    const Table* original = database.FindTable(table_name);
    const Table* restored = loaded->FindTable(table_name);
    ASSERT_NE(restored, nullptr) << table_name;
    ASSERT_EQ(restored->row_count(), original->row_count()) << table_name;
    // Compare as multisets: load order may differ for FK-deferred rows.
    std::multiset<std::string> original_rows;
    std::multiset<std::string> restored_rows;
    for (const Row& row : original->rows()) {
      std::string entry;
      for (const Value& value : row) entry += value.Encode() + "\x1f";
      original_rows.insert(entry);
    }
    for (const Row& row : restored->rows()) {
      std::string entry;
      for (const Value& value : row) entry += value.Encode() + "\x1f";
      restored_rows.insert(entry);
    }
    EXPECT_EQ(restored_rows, original_rows) << table_name;
  }

  // Constraints survived: duplicate PK and dangling FK still rejected.
  EXPECT_FALSE(loaded->Insert("parent",
                              {Value::Integer(parent_keys[0]),
                               Value::Null()}).ok());
  EXPECT_EQ(loaded->Insert("child", {Value::Integer(99999),
                                     Value::Integer(100000),
                                     Value::Null()}).code(),
            ErrorCode::kConstraintViolation);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceFuzz, ::testing::Range(0, 12));

// ---- WAL format ---------------------------------------------------------

// Exact-order dump: WAL replay must reproduce rows in their original
// positions (update/delete records address rows by index), so unlike
// the text round trip above this comparison is order-sensitive.
std::string ExactDump(const Database& database) {
  std::string dump;
  for (const std::string& name : database.TableNames()) {
    const Table* table = database.FindTable(name);
    dump += "== " + name + "\n" + SerializeSchema(table->schema());
    for (const Row& row : table->rows()) {
      for (const Value& value : row) {
        dump += value.Encode();
        dump += '\x1f';
      }
      dump += '\n';
    }
  }
  return dump;
}

class WalPersistenceFuzz : public ::testing::TestWithParam<int> {};

// Random insert/update/delete/commit/compaction interleavings: after
// every run the reopened (snapshot-loaded + log-replayed) database must
// equal the in-memory one row for row, and compaction must be an
// invisible no-op on the logical state.
TEST_P(WalPersistenceFuzz, ReplayedStateMatchesMemory) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL +
          3037000493ULL);
  const std::string dir =
      (TestTempRoot() /
       ("goofi_wal_fuzz_" + std::to_string(GetParam()))).string();
  fs::remove_all(dir);

  Database database;
  ASSERT_TRUE(database.AttachWal(dir).ok());
  // Sometimes let the log grow unboundedly, sometimes force frequent
  // automatic compactions mid-run.
  const std::uint64_t thresholds[] = {0, 0, 768, 4096};
  database.set_compaction_threshold(thresholds[rng.NextBelow(4)]);

  TableSchema parent("parent");
  ASSERT_TRUE(parent.AddColumn({"key", ColumnType::kInteger, false, false,
                                true}).ok());
  ASSERT_TRUE(parent.AddColumn({"payload", ColumnType::kBlob}).ok());
  ASSERT_TRUE(database.CreateTable(parent).ok());
  TableSchema child("child");
  ASSERT_TRUE(child.AddColumn({"id", ColumnType::kInteger, false, false,
                               true}).ok());
  ASSERT_TRUE(child.AddColumn({"parent_key", ColumnType::kInteger}).ok());
  ASSERT_TRUE(child.AddColumn({"tag", ColumnType::kText, false, false,
                               false, true}).ok());  // secondary-indexed
  ASSERT_TRUE(child.AddForeignKey({"parent_key", "parent", "key"}).ok());
  ASSERT_TRUE(database.CreateTable(child).ok());

  int next_id = 0;
  const int operations = 40 + static_cast<int>(rng.NextBelow(60));
  for (int op = 0; op < operations; ++op) {
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
        (void)database.Insert(
            "parent", {Value::Integer(rng.NextBelow(50)),
                       RandomValue(rng, ColumnType::kBlob, true)});
        break;
      case 2:
      case 3:
      case 4: {
        const Value parent_ref =
            rng.NextBool(0.3)
                ? Value::Null()
                : Value::Integer(rng.NextBelow(50));
        (void)database.Insert(
            "child", {Value::Integer(next_id++), parent_ref,
                      Value::Text_("t" + std::to_string(rng.NextBelow(5)))});
        break;
      }
      case 5: {
        const std::string tag = "t" + std::to_string(rng.NextBelow(5));
        (void)database.Update(
            "child",
            [&tag](const Row& row) { return row[2].AsText() == tag; },
            {{2, Value::Text_("t" + std::to_string(rng.NextBelow(5)))}});
        break;
      }
      case 6: {
        const std::int64_t cutoff =
            static_cast<std::int64_t>(rng.NextBelow(200));
        (void)database.Delete("child", [cutoff](const Row& row) {
          return row[0].AsInteger() < cutoff % 37;
        });
        break;
      }
      case 7:
        (void)database.Delete("parent", [&rng](const Row& row) {
          return row[0].AsInteger() ==
                 static_cast<std::int64_t>(rng.NextBelow(50));
        });
        break;
      case 8:
        ASSERT_TRUE(database.Commit().ok());
        break;
      case 9:
        ASSERT_TRUE(database.Compact().ok());
        break;
    }
  }
  ASSERT_TRUE(database.Commit().ok());
  const std::string expected = ExactDump(database);

  auto reopened = Database::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(ExactDump(*reopened), expected);

  // Compact -> reopen is idempotent: the fold into snapshots and the
  // reload from them are logically invisible, any number of times.
  ASSERT_TRUE(reopened->Compact().ok());
  EXPECT_EQ(ExactDump(*reopened), expected);
  ASSERT_TRUE(reopened->Compact().ok());
  auto reloaded = Database::Open(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(ExactDump(*reloaded), expected);

  // Constraints survived replay: duplicate child PK still rejected.
  if (next_id > 0 && reloaded->FindTable("child")->row_count() > 0) {
    const Row& first = reloaded->FindTable("child")->row(0);
    EXPECT_FALSE(reloaded->Insert("child",
                                  {first[0], Value::Null(),
                                   Value::Text_("dup")}).ok());
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalPersistenceFuzz, ::testing::Range(0, 16));

}  // namespace
}  // namespace goofi::db
