// Experiment T-DB (DESIGN.md), the row path: what one LoggedSystemState
// row costs to encode, checksum and decode. Every logged experiment
// pays Observation::Serialize and the WAL frame CRC; Database::Open pays
// the CRC again for every frame, and the analysis stage pays
// Observation::Deserialize for every row it classifies.
//
// Row shapes follow perfbench's workloads: long_mission is an
// engine_control reference run over 10,000 plant iterations (32 KB,
// mostly the env= word list); serve_stream is a SCIFI experiment on fib
// (1.5 KB, mostly the internal chain image). BM_AnalyzeCampaign
// classifies a 100-experiment long_mission campaign held in memory.
//
//   bench_row_codec --benchmark_repetitions=5
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdlib>
#include <random>
#include <string>

#include "core/goofi.h"
#include "util/crc32.h"

namespace {

using namespace goofi;

constexpr std::uint64_t kLongMissionIterations = 10000;

// max_iterations 0 keeps the workload's own termination.
void LoadWorkload(target::ThorRdTarget& target,
                  const std::string& workload_name,
                  std::uint64_t max_iterations) {
  auto workload = target::GetBuiltinWorkload(workload_name);
  if (!workload.ok()) std::abort();
  if (max_iterations != 0) workload->termination.max_iterations = max_iterations;
  if (!target.SetWorkload(std::move(*workload)).ok()) std::abort();
}

enum class Shape { kLongMission, kServeStream };

const target::Observation& Row(Shape shape) {
  static const target::Observation long_mission = [] {
    target::ThorRdTarget target;
    LoadWorkload(target, "engine_control", kLongMissionIterations);
    if (!target.MakeReferenceRun().ok()) std::abort();
    return target.TakeObservation();
  }();
  static const target::Observation serve_stream = [] {
    target::ThorRdTarget target;
    LoadWorkload(target, "fib", 0);
    target::ExperimentSpec spec;
    spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
    spec.trigger.count = 10;
    spec.targets = {{"cpu.regs.r2", 13}};
    target.set_experiment(spec);
    if (!target.RunExperiment().ok()) std::abort();
    return target.TakeObservation();
  }();
  return shape == Shape::kLongMission ? long_mission : serve_stream;
}

void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<std::size_t>(state.range(0)), '\0');
  std::mt19937_64 rng(1);
  for (char& c : bytes) c = static_cast<char>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// A short record, a serve_stream-sized row, a long_mission-sized row.
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1536)->Arg(32768);

void BM_ObservationSerialize(benchmark::State& state, Shape shape) {
  const target::Observation& observation = Row(shape);
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = observation.Serialize();
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.counters["row_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    bytes));
}
BENCHMARK_CAPTURE(BM_ObservationSerialize, long_mission, Shape::kLongMission);
BENCHMARK_CAPTURE(BM_ObservationSerialize, serve_stream, Shape::kServeStream);

void BM_ObservationDeserialize(benchmark::State& state, Shape shape) {
  const std::string text = Row(shape).Serialize();
  for (auto _ : state) {
    auto decoded = target::Observation::Deserialize(text);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["row_bytes"] = static_cast<double>(text.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    text.size()));
}
BENCHMARK_CAPTURE(BM_ObservationDeserialize, long_mission,
                  Shape::kLongMission);
BENCHMARK_CAPTURE(BM_ObservationDeserialize, serve_stream,
                  Shape::kServeStream);

// perfbench's long_mission campaign, run once into an in-memory database.
db::Database& LongMissionDatabase() {
  static db::Database database = [] {
    db::Database db;
    target::ThorRdTarget target;
    LoadWorkload(target, "engine_control", 0);
    core::CampaignConfig config;
    config.name = "long_mission";
    config.workload = "engine_control";
    config.num_experiments = 100;
    config.seed = 1;
    config.location_filters = {"cpu.regs.*"};
    config.termination.max_iterations = kLongMissionIterations;
    config.checkpoint_mode = true;
    if (!core::CreateGoofiSchema(db).ok() ||
        !core::RegisterTargetSystem(db, target, "bench", "").ok() ||
        !core::StoreCampaign(db, config).ok() ||
        !core::CampaignRunner(&db, &target).Run(config.name).ok()) {
      std::abort();
    }
    return db;
  }();
  return database;
}

void BM_AnalyzeCampaign(benchmark::State& state) {
  db::Database& database = LongMissionDatabase();
  for (auto _ : state) {
    auto analysis = core::AnalyzeCampaign(database, "long_mission",
                                          /*collect_experiments=*/false);
    if (!analysis.ok() || analysis->total != 100) std::abort();
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["rows"] = 101;  // 100 experiments + the reference
}
BENCHMARK(BM_AnalyzeCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // perfbench's malloc thresholds (perfbench/cpp/main.cpp), where a
  // long-running process ends up. Left dynamic, glibc may trim and
  // re-grow the heap top around every decoded row, and the timings then
  // follow the heap layout the set-up left behind (a 42 vs 70 µs
  // long_mission decode from one unrelated allocation) more than the
  // codec.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
