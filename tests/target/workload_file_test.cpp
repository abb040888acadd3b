// The built-in workload set and the .workload file loader.
#include "target/workloads.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/assembler.h"
#include "support/temp_dir.h"

namespace goofi::target {
namespace {

TEST(WorkloadsTest, BuiltinNamesAreSortedAndResolvable) {
  const std::vector<std::string> names = BuiltinWorkloadNames();
  ASSERT_FALSE(names.empty());
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
  for (const std::string& name : names) {
    auto spec = GetBuiltinWorkload(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
  }
  EXPECT_FALSE(GetBuiltinWorkload("pacman").ok());
}

TEST(WorkloadsTest, EveryBuiltinAssembles) {
  for (const std::string& name : BuiltinWorkloadNames()) {
    auto spec = GetBuiltinWorkload(name);
    ASSERT_TRUE(spec.ok());
    auto program = sim::Assemble(spec.value().assembly);
    EXPECT_TRUE(program.ok())
        << name << ": " << program.status().ToString();
  }
}

TEST(WorkloadsTest, TheBenchmarkSuiteIsPresent) {
  // The paper's campaign set: sorting, matrix multiply, CRC and the
  // jet-engine controller (plus its recovery-handler variant).
  for (const char* name : {"fib", "isort", "qsort", "matmul", "crc32",
                           "engine_control", "engine_control_ber"}) {
    EXPECT_TRUE(GetBuiltinWorkload(name).ok()) << name;
  }
  auto engine = GetBuiltinWorkload("engine_control");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().environment, "engine");
  EXPECT_EQ(engine.value().termination.max_iterations, 40u);
}

TEST(WorkloadFileTest, LoadsTheShippedVectorScaleDefinition) {
  const std::string path =
      std::string(GOOFI_WORKLOADS_DIR) + "/vector_scale.workload";
  auto spec = LoadWorkloadSpecFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadSpec& workload = spec.value();
  EXPECT_EQ(workload.name, "vector_scale");
  EXPECT_EQ(workload.output_base, 0x10200u);
  EXPECT_EQ(workload.output_length, 68u);
  EXPECT_EQ(workload.termination.max_instructions, 50000u);
  ASSERT_FALSE(workload.assembly.empty());
  EXPECT_TRUE(sim::Assemble(workload.assembly).ok());
}

class WorkloadFileFixture : public ::testing::Test {
 protected:
  std::string Dir() const { return TestTempRoot().string(); }

  std::string WriteFile(const std::string& name,
                        const std::string& content) {
    const std::string path = Dir() + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return path;
  }
};

TEST_F(WorkloadFileFixture, ResolvesTheAssemblyFileRelatively) {
  WriteFile("tiny.s", "halt\n");
  const std::string path = WriteFile("tiny.workload",
                                     "[workload]\n"
                                     "name = tiny\n"
                                     "assembly_file = tiny.s\n"
                                     "max_iterations = 3\n");
  auto spec = LoadWorkloadSpecFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().assembly, "halt\n");
  EXPECT_EQ(spec.value().termination.max_iterations, 3u);
  EXPECT_EQ(spec.value().output_length, 0u);
  EXPECT_TRUE(spec.value().environment.empty());
}

TEST_F(WorkloadFileFixture, MissingPiecesAreDiagnosed) {
  EXPECT_FALSE(LoadWorkloadSpecFromFile(Dir() + "/absent.workload").ok());

  const std::string no_section =
      WriteFile("no_section.workload", "name = x\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_section).ok());

  const std::string no_name = WriteFile(
      "no_name.workload", "[workload]\nassembly_file = tiny.s\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_name).ok());

  const std::string no_assembly =
      WriteFile("no_assembly.workload", "[workload]\nname = x\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_assembly).ok());

  const std::string dangling = WriteFile(
      "dangling.workload",
      "[workload]\nname = x\nassembly_file = does_not_exist.s\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(dangling).ok());
}

}  // namespace
}  // namespace goofi::target
