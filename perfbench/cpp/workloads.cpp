#include "workloads.h"

#include <cstdio>

namespace perfbench {
namespace {

// splitmix64 of (seed, stream), folded to a positive 31-bit campaign
// seed so it round-trips through the campaign ini's integer key.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return (z & 0x7fffffffull) | 1;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (const Workload workload :
       {Workload::kLongMission, Workload::kEquivParallel,
        Workload::kServeStream}) {
    if (name == WorkloadName(workload)) return workload;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kLongMission: return "long_mission";
    case Workload::kEquivParallel: return "equiv_parallel";
    case Workload::kServeStream: return "serve_stream";
  }
  return "";
}

std::size_t WorkloadJobs(Workload workload) {
  return workload == Workload::kEquivParallel ? 2 : 1;
}

std::size_t CampaignsPerPass(Workload workload, bool smoke) {
  if (smoke) return 1;
  switch (workload) {
    case Workload::kLongMission: return 2;    // ~1.1 s per campaign
    case Workload::kEquivParallel: return 2;  // ~0.5 s per campaign
    case Workload::kServeStream: return 1;
  }
  return 1;
}

std::string BatchCampaignIni(Workload workload, std::uint64_t seed,
                             std::size_t index, bool smoke) {
  const std::string name =
      std::string(WorkloadName(workload)) + "_" + std::to_string(index);
  const unsigned long long campaign_seed = DeriveSeed(seed, index);
  char ini[1024];
  switch (workload) {
    case Workload::kLongMission:
      // A long engine_control mission forked from golden checkpoints at
      // the default stride, over the full injection window.
      std::snprintf(ini, sizeof(ini),
                    "[campaign]\nname = %s\ntarget = thor_rd\n"
                    "technique = scifi\nworkload = engine_control\n"
                    "experiments = %d\nseed = %llu\n"
                    "fault_model = transient\nlocation[] = cpu.regs.*\n"
                    "max_iterations = %d\ncheckpoint_mode = true\n",
                    name.c_str(), smoke ? 6 : 100, campaign_seed,
                    smoke ? 1000 : 10000);
      break;
    case Workload::kEquivParallel:
      // campaigns/regs_scifi_equivalence.ini at two workers, scaled down
      // eightfold: 625 of its 5000 experiments over an eighth of its
      // 0..300 window, so that equivalence classes are about as dense
      // (~30% stubs against its ~39%).
      std::snprintf(ini, sizeof(ini),
                    "[campaign]\nname = %s\ntarget = thor_rd\n"
                    "technique = scifi\nworkload = isort\n"
                    "experiments = %d\nseed = %llu\n"
                    "fault_model = transient\npreinjection = true\n"
                    "static_analysis = equivalence\n"
                    "location[] = cpu.regs.*\n"
                    "time_window_lo = 0\ntime_window_hi = 38\njobs = 2\n",
                    name.c_str(), smoke ? 300 : 625, campaign_seed);
      break;
    case Workload::kServeStream:
      return "";
  }
  return ini;
}

std::size_t ServeCampaignExperiments(bool smoke) { return smoke ? 8 : 40; }

std::string ServeCampaignIni(std::uint64_t seed, std::size_t slot,
                             const std::string& name, bool smoke) {
  const unsigned long long campaign_seed = DeriveSeed(seed, 1000 + slot);
  const int experiments = static_cast<int>(ServeCampaignExperiments(smoke));
  char ini[512];
  if (slot % 2 == 0) {
    std::snprintf(ini, sizeof(ini),
                  "[campaign]\nname = %s\ntarget = thor_rd\n"
                  "technique = scifi\nworkload = fib\nexperiments = %d\n"
                  "seed = %llu\nfault_model = transient\n"
                  "location[] = cpu.regs.*\n",
                  name.c_str(), experiments, campaign_seed);
  } else {
    std::snprintf(ini, sizeof(ini),
                  "[campaign]\nname = %s\ntarget = thor_rd\n"
                  "technique = swifi_pre_runtime\nworkload = qsort\n"
                  "experiments = %d\nseed = %llu\nfault_model = transient\n",
                  name.c_str(), experiments, campaign_seed);
  }
  return ini;
}

}  // namespace perfbench
