#include "serve.h"

#include <chrono>
#include <filesystem>
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "service/journal.h"
#include "service/protocol.h"
#include "service/server.h"
#include "trace.h"
#include "util/socket.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace service = goofi::service;
using goofi::Result;
using goofi::Status;
using Clock = std::chrono::steady_clock;

namespace {

// One fleet worker per campaign.
constexpr std::size_t kMaxCampaignJobs = 1;
constexpr std::size_t kClients = 2;
constexpr auto kPollInterval = std::chrono::microseconds(500);

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// A running daemon; the destructor shuts it down the way goofi_serve
// does on SIGTERM (stop accepting, then drain the fleet).
class Daemon {
 public:
  static Result<std::unique_ptr<Daemon>> Start(const std::string& root,
                                               const std::string& socket) {
    service::ServiceConfig config;
    config.root = root;
    config.fleet_workers = kServeFleetWorkers;
    config.max_campaign_jobs = kMaxCampaignJobs;
    auto daemon = std::unique_ptr<Daemon>(new Daemon());
    ASSIGN_OR_RETURN(daemon->core_, service::ServiceCore::Start(config));
    ASSIGN_OR_RETURN(daemon->server_,
                     service::ServiceServer::Start(daemon->core_.get(), socket,
                                                   nullptr));
    return daemon;
  }
  ~Daemon() {
    if (server_) server_->Shutdown();
    if (core_) core_->Drain();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  Daemon() = default;
  std::unique_ptr<service::ServiceCore> core_;
  std::unique_ptr<service::ServiceServer> server_;
};

Result<std::string> Call(const goofi::UnixSocket& socket,
                         const std::string& frame) {
  RETURN_IF_ERROR(socket.SendFrame(frame));
  ASSIGN_OR_RETURN(const std::string reply, socket.RecvFrame());
  return service::ParseResponse(reply);
}

struct ClientResult {
  Status status = Status::Ok();
  std::vector<ServedCampaign> campaigns;
  std::size_t refused = 0;
  double status_rtt_total = 0.0;
  std::size_t status_polls = 0;
  Clock::time_point last_end;
};

// One closed-loop client on its own connection.
void RunClient(const ServeOptions& options, std::size_t client,
               Clock::time_point deadline, ClientResult* out) {
  auto connected = goofi::UnixSocket::Connect(options.socket_path);
  if (!connected.ok()) {
    out->status = connected.status();
    return;
  }
  const goofi::UnixSocket& socket = *connected;
  out->last_end = Clock::now();
  for (std::size_t j = 0; Clock::now() < deadline; ++j) {
    ServedCampaign campaign;
    campaign.name = options.name_prefix + std::to_string(client) + "_" +
                    std::to_string(j);
    campaign.slot = (client * 7 + j) % kServeSlots;
    const std::string ini = ServeCampaignIni(options.seed, campaign.slot,
                                             campaign.name, options.smoke);
    const Clock::time_point sent = Clock::now();
    Result<std::string> reply = goofi::InternalError("unsent");
    {
      trace::Span span("service.submit");
      reply = Call(socket, "submit\n" + ini);
    }
    const Clock::time_point accepted = Clock::now();
    campaign.submit_s = Seconds(sent, accepted);
    if (!reply.ok()) {
      if (reply.status().code() == goofi::ErrorCode::kQueueFull) {
        ++out->refused;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      out->status = reply.status();
      return;
    }
    const std::vector<std::string> words = goofi::SplitString(*reply, ' ');
    if (words.size() != 2 || words[0] != "id") {
      out->status = goofi::DataLossError("bad submit reply: " + *reply);
      return;
    }
    const std::string id = words[1];
    std::optional<Clock::time_point> started;
    for (;;) {
      std::this_thread::sleep_for(kPollInterval);
      const Clock::time_point asked = Clock::now();
      Result<std::string> status = goofi::InternalError("unsent");
      {
        trace::Span span("service.status");
        status = Call(socket, "status " + id);
      }
      const Clock::time_point answered = Clock::now();
      out->status_rtt_total += Seconds(asked, answered);
      ++out->status_polls;
      if (!status.ok()) {
        out->status = status.status();
        return;
      }
      // "<id> <name> <state> <done>/<total> jobs=<n>"
      const std::vector<std::string> fields =
          goofi::SplitString(*status, ' ');
      if (fields.size() < 4) {
        out->status = goofi::DataLossError("bad status reply: " + *status);
        return;
      }
      const std::string& state = fields[2];
      if (state == service::kStateQueued) continue;
      if (!started) started = answered;
      if (state == service::kStateRunning) continue;
      campaign.end_state = state;
      campaign.queue_wait_s = Seconds(accepted, *started);
      campaign.run_s = Seconds(*started, answered);
      campaign.turnaround_s = Seconds(sent, answered);
      campaign.experiments = ServeCampaignExperiments(options.smoke);
      out->last_end = answered;
      break;
    }
    out->campaigns.push_back(std::move(campaign));
  }
}

}  // namespace

std::string ServedCampaignDir(const std::string& root,
                              const std::string& name) {
  return (fs::path(root) / "campaigns" / name).string();
}

Result<double> TimeDaemonStart(const std::string& root,
                               const std::string& socket_path) {
  const Clock::time_point start = Clock::now();
  ASSIGN_OR_RETURN(const std::unique_ptr<Daemon> daemon,
                   Daemon::Start(root, socket_path));
  return Seconds(start, Clock::now());
}

Result<ServeStream> RunServeStream(const ServeOptions& options) {
  ASSIGN_OR_RETURN(const std::unique_ptr<Daemon> daemon,
                   Daemon::Start(options.root, options.socket_path));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<ClientResult> results(kClients);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, std::cref(options), c, deadline,
                           &results[c]);
    }
    for (std::thread& client : clients) client.join();
  }
  ServeStream stream;
  Clock::time_point end = start;
  double rtt_total = 0.0;
  for (ClientResult& result : results) {
    RETURN_IF_ERROR(result.status);
    stream.refused += result.refused;
    rtt_total += result.status_rtt_total;
    stream.status_polls += result.status_polls;
    end = std::max(end, result.last_end);
    for (ServedCampaign& campaign : result.campaigns) {
      stream.campaigns.push_back(std::move(campaign));
    }
  }
  stream.wall_s = Seconds(start, end);
  stream.status_rtt_s =
      stream.status_polls == 0 ? 0.0 : rtt_total / stream.status_polls;
  return stream;
}

}  // namespace perfbench
