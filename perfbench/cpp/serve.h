// serve_stream: goofi_serve's engine (ServiceCore + ServiceServer)
// in-process on a Unix socket, driven by two closed-loop clients that each
// submit a campaign, poll `status` on their own connection until it
// ends, and submit the next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

// The daemon's shared worker fleet.
inline constexpr std::size_t kServeFleetWorkers = 2;

struct ServeOptions {
  std::string root;         // fresh daemon root (journal/ and campaigns/)
  std::string socket_path;  // relative paths keep clear of sun_path limits
  std::uint64_t seed = 0;
  double seconds = 1.0;     // clients stop submitting after this long
  bool smoke = false;
  std::string name_prefix = "c";
};

struct ServedCampaign {
  std::string name;
  std::size_t slot = 0;         // which ServeCampaignIni it ran
  std::size_t experiments = 0;
  std::string end_state;        // completed / failed / cancelled
  double submit_s = 0.0;        // submit round trip
  double queue_wait_s = 0.0;    // submit reply to first non-queued status
  double run_s = 0.0;           // first non-queued status to terminal
  double turnaround_s = 0.0;    // submit sent to terminal state seen
};

struct ServeStream {
  std::vector<ServedCampaign> campaigns;
  std::size_t refused = 0;      // QUEUE_FULL replies
  double wall_s = 0.0;          // first submit to last terminal state
  double status_rtt_s = 0.0;    // mean status round trip
  std::size_t status_polls = 0;
};

// Seconds to bring a daemon up on a fresh root (core, then the socket
// frontend). The daemon is shut down again outside the timed part.
goofi::Result<double> TimeDaemonStart(const std::string& root,
                                      const std::string& socket_path);

goofi::Result<ServeStream> RunServeStream(const ServeOptions& options);

// The campaign's results database directory under a daemon root.
std::string ServedCampaignDir(const std::string& root,
                              const std::string& name);

}  // namespace perfbench
