// The benchmark's three workloads and the campaign inis they run. Every
// campaign seed is derived from the run's --seed, so one seed always
// gives the same campaigns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

enum class Workload { kLongMission, kEquivParallel, kServeStream };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

// The worker count of the workload's product-path runner.
std::size_t WorkloadJobs(Workload workload);

// How many distinct campaigns one pass of a batch workload runs.
std::size_t CampaignsPerPass(Workload workload, bool smoke);

// Campaign `index` of a batch workload (long_mission, equiv_parallel).
// `smoke` shrinks the experiment count.
std::string BatchCampaignIni(Workload workload, std::uint64_t seed,
                             std::size_t index, bool smoke);

// serve_stream: the campaign a client submits. `slot` picks one of
// kServeSlots distinct inis (even slots SCIFI on fib, odd slots
// pre-runtime SWIFI on qsort); `name` makes the submission unique.
inline constexpr std::size_t kServeSlots = 16;
std::string ServeCampaignIni(std::uint64_t seed, std::size_t slot,
                             const std::string& name, bool smoke);
std::size_t ServeCampaignExperiments(bool smoke);

}  // namespace perfbench
