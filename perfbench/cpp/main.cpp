// perfbench: the GOOFI++ benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir> [--trace-dump <file>] [--commit <id>]
//             [--smoke]
//   perfbench --list-metrics
//
// One run measures one workload for --seconds on campaigns derived from
// --seed, checks every campaign it ran (the correctness gate), and
// prints one JSON object as its last line of output:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 reports the per-layer metrics from spans around every call
// into the target, core, db and service layers. A gate mismatch prints
// the reason on stderr, no result, and exits 1.
//
// All files go under a fresh mkdtemp directory inside --scratch, which
// is removed at exit.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/registry.h"
#include "db/database.h"
#include "metrics.h"
#include "runs.h"
#include "serve.h"
#include "target/thor_rd_target.h"
#include "timed_target.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = goofi::core;
namespace db = goofi::db;
namespace fs = std::filesystem;
using goofi::Result;
using goofi::Status;
using Clock = std::chrono::steady_clock;

// A burst of a short timed operation (set-up, reopen, report): one
// untimed warm-up, then at least kMinRepetitions calls and until
// kBurstSeconds of calls have been timed (see ShortOpCalls).
constexpr int kMinRepetitions = 3;
constexpr int kMaxRepetitions = 200;
constexpr double kBurstSeconds = 0.02;

struct Options {
  Workload workload = Workload::kLongMission;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string scratch;
  std::string trace_dump;
  std::string commit = "unknown";
};

using Metrics = std::map<std::string, double>;

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  std::vector<trace::SpanRecord> spans;
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

volatile std::uint64_t g_calibration_sink = 0;

// A fixed CPU loop, timed at the start and end of every run so host
// speed drift between run sets shows in the provenance line. Reported
// only; no metric is divided by it. Its body is a one-bit shift through
// a 5,696-bit word array: the shape of the scan-chain clocking that
// dominates SCIFI experiments, and the kind of code that slows most
// when other tenants load the host.
double CalibrationMs() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    std::vector<std::uint64_t> chain(89, 0x9E3779B97F4A7C15ull + rep);
    for (int clock = 0; clock < 200'000; ++clock) {
      std::uint64_t carry = static_cast<std::uint64_t>(clock & 1);
      for (std::size_t w = chain.size(); w-- > 0;) {
        const std::uint64_t out = chain[w] & 1;
        chain[w] = (chain[w] >> 1) | (carry << 63);
        carry = out;
      }
    }
    g_calibration_sink = chain[0];
    samples.push_back(1e3 * Since(start));
  }
  return Median(samples);
}

// The run's private scratch root: mkdtemp under --scratch, removed
// with everything in it when the run ends.
class ScratchRoot {
 public:
  static Result<std::unique_ptr<ScratchRoot>> Create(const std::string& parent) {
    std::error_code ec;
    fs::create_directories(parent, ec);
    std::string pattern = (fs::absolute(parent) / "run-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      return goofi::IoError("mkdtemp under " + parent + ": " +
                            std::strerror(errno));
    }
    return std::unique_ptr<ScratchRoot>(new ScratchRoot(pattern));
  }
  ~ScratchRoot() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;

  std::string Sub(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }
  const std::string& path() const { return path_; }

 private:
  explicit ScratchRoot(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Writes back the dirty data of the file system holding `path` (untimed)
// before a timed unit of work, so the unit does not pay for what the
// unit before it wrote and deleted. Without it, 0.3 ms daemon starts
// measured 1.4-5 ms right after a stream pass on the reference host.
void SyncFileSystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// At least this many passes (batch) or streams (serve_stream) per run,
// however long one takes.
constexpr std::size_t kMinPasses = 3;
// The length of one serve_stream stream (about 60 campaigns on the
// reference host).
constexpr double kServeStreamSeconds = 2.0;

// The fastest value of each metric over a run's passes. Interference
// from other tenants of the host only ever adds time, so the fastest
// pass is the steadiest estimate of the program's own cost.
class BestOfPasses {
 public:
  void Add(const std::string& name, double seconds) {
    const auto [it, inserted] = best_.emplace(name, seconds);
    if (!inserted) it->second = std::min(it->second, seconds);
  }
  void Report(Metrics* metrics) const {
    for (const auto& [name, seconds] : best_) (*metrics)[name] = seconds;
  }

 private:
  std::map<std::string, double> best_;
};

// Every timed call of the short operations, gathered over a run and
// grouped by the campaign they ran on (the unit). On the reference host
// other tenants' load comes in bursts of milliseconds to a few hundred
// milliseconds; a call of a few ms that falls between them runs at the
// program's own speed, and a run holds many such calls. So each unit
// keeps its fastest call, and the report is the mean over units: the
// cost of the operation differs from campaign to campaign, and the
// fastest call of all would pick the cheapest campaign instead.
class ShortOpCalls {
 public:
  std::vector<double>* Calls(const std::string& name, std::size_t unit) {
    return &calls_[name][unit];
  }
  void Report(Metrics* metrics) const {
    for (const auto& [name, units] : calls_) {
      double sum = 0.0;
      for (const auto& [unit, calls] : units) {
        sum += *std::min_element(calls.begin(), calls.end());
      }
      (*metrics)[name] = sum / static_cast<double>(units.size());
    }
  }

 private:
  std::map<std::string, std::map<std::size_t, std::vector<double>>> calls_;
};

// One burst of `op`: an untimed warm-up, then at least kMinRepetitions
// calls and until kBurstSeconds of calls have been timed, each appended
// to `calls`. `op` returns the seconds of its timed part.
Status TimeBurst(const std::function<Result<double>(int)>& op,
                 std::vector<double>* calls) {
  RETURN_IF_ERROR(op(0).status());
  double timed = 0.0;
  for (int rep = 1; rep <= kMaxRepetitions &&
                    (rep <= kMinRepetitions || timed < kBurstSeconds);
       ++rep) {
    ASSIGN_OR_RETURN(const double seconds, op(rep));
    calls->push_back(seconds);
    timed += seconds;
  }
  return Status::Ok();
}

// Bursts of reopen_s and report_s on a finished campaign directory, with
// spans (db.open, core.analyze, core.format) for the traced run.
Status MeasureReopenAndReport(const std::string& dir,
                              const std::string& campaign, std::size_t unit,
                              ShortOpCalls* calls) {
  std::optional<db::Database> reopened;
  RETURN_IF_ERROR(TimeBurst(
      [&](int) -> Result<double> {
        reopened.reset();
        const Clock::time_point start = Clock::now();
        trace::Span span("db.open");
        ASSIGN_OR_RETURN(db::Database opened, db::Database::Open(dir));
        const double seconds = Since(start);
        reopened.emplace(std::move(opened));
        return seconds;
      },
      calls->Calls("reopen_s", unit)));
  return TimeBurst(
      [&](int) -> Result<double> {
        const Clock::time_point start = Clock::now();
        std::optional<core::CampaignAnalysis> analysis;
        {
          trace::Span span("core.analyze");
          ASSIGN_OR_RETURN(core::CampaignAnalysis analyzed,
                           core::AnalyzeCampaign(*reopened, campaign, false));
          analysis.emplace(std::move(analyzed));
        }
        trace::Span span("core.format");
        if (core::FormatAnalysisReport(*analysis).empty()) {
          return goofi::InternalError("empty analysis report");
        }
        return Since(start);
      },
      calls->Calls("report_s", unit));
}

// One burst of each of the three short operations.
Status ShortOpBurst(const std::function<Result<double>(int)>& setup,
                    const std::string& dir, const std::string& campaign,
                    std::size_t unit, ShortOpCalls* calls) {
  SyncFileSystem(dir);
  RETURN_IF_ERROR(TimeBurst(setup, calls->Calls("setup_s", unit)));
  return MeasureReopenAndReport(dir, campaign, unit, calls);
}

Status GateDigest(const std::string& what, std::uint64_t expected,
                  std::uint64_t actual) {
  if (expected == actual) return Status::Ok();
  char message[160];
  std::snprintf(message, sizeof(message),
                "%s: LoggedSystemState digest %016llx != reference %016llx",
                what.c_str(), static_cast<unsigned long long>(actual),
                static_cast<unsigned long long>(expected));
  return goofi::InternalError(message);
}

// ---- batch workloads (long_mission, equiv_parallel) -------------------

Result<Report> UntracedBatch(const Options& options, const ScratchRoot& root) {
  const std::size_t jobs = WorkloadJobs(options.workload);
  const std::size_t per_pass = CampaignsPerPass(options.workload, options.smoke);
  const auto ini = [&](std::size_t k) {
    return BatchCampaignIni(options.workload, options.seed, k, options.smoke);
  };
  Report report;
  Metrics& m = report.metrics;

  // Passes over the same campaigns for --seconds. Each campaign keeps
  // its fastest pass; the short operations are timed in a burst after
  // every campaign.
  std::vector<CampaignOutcome> best(per_pass);
  ShortOpCalls short_ops;
  double first_pass_bytes = 0.0;
  double first_pass_planned = 0.0;
  // A pass starts only if one more pass as long as the last still fits
  // in the window, so the run ends near --seconds.
  const Clock::time_point window = Clock::now();
  double last_pass_s = 0.0;
  for (std::size_t pass = 0;
       pass < kMinPasses || Since(window) + last_pass_s <= options.seconds;
       ++pass) {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t k = 0; k < per_pass; ++k) {
      const std::string tag = "pass" + std::to_string(pass) + "_" + std::to_string(k);
      const std::string dir = root.Sub(tag);
      SyncFileSystem(root.path());
      ASSIGN_OR_RETURN(CampaignOutcome outcome,
                       RunProductCampaign(ini(k), dir, jobs));
      report.attempted += outcome.planned;
      report.failed += outcome.dispositions.abandoned;
      if (pass == 0) {
        first_pass_bytes += static_cast<double>(DirectoryBytes(dir));
        first_pass_planned += static_cast<double>(outcome.planned);
      } else {
        RETURN_IF_ERROR(GateDigest(outcome.name + " pass " + std::to_string(pass) +
                                       " vs pass 0",
                                   best[k].digest, outcome.digest));
      }
      // TimeSetUp removes its directory after each call.
      RETURN_IF_ERROR(ShortOpBurst(
          [&](int) { return TimeSetUp(ini(0), root.Sub(tag + "-setup")); },
          dir, outcome.name, k, &short_ops));
      RemoveDir(dir);
      if (pass == 0) {
        best[k] = std::move(outcome);
        continue;
      }
      const double turnaround = std::min(best[k].turnaround_s, outcome.turnaround_s);
      if (outcome.run_s < best[k].run_s) best[k] = std::move(outcome);
      best[k].turnaround_s = turnaround;
    }
    last_pass_s = Since(pass_start);
  }
  double planned = 0.0;
  double loop_s = 0.0;
  std::vector<double> turnaround;
  for (const CampaignOutcome& outcome : best) {
    planned += static_cast<double>(outcome.planned);
    loop_s += outcome.run_s;
    turnaround.push_back(outcome.turnaround_s);
  }
  m["exps_per_s"] = planned / loop_s;
  m["turnaround_p50_s"] = Quantile(turnaround, 0.5);
  m["turnaround_p90_s"] = Quantile(turnaround, 0.9);
  m["db_bytes_per_exp"] = first_pass_bytes / first_pass_planned;
  short_ops.Report(&m);
  m["peak_rss_mb"] = PeakRssMb();

  // Gate: the traced serial loop must log the same rows as the product
  // runner did for campaign 0 (at 2 workers for equiv_parallel).
  trace::Enable(true);
  auto traced = RunTracedCampaign(ini(0), root.Sub("gate"));
  trace::Enable(false);
  trace::Collect();
  if (!traced.ok()) return traced.status();
  RETURN_IF_ERROR(GateDigest(best[0].name + " traced serial vs product",
                             traced->digest, best[0].digest));
  return report;
}

bool IsExperimentSpan(const trace::SpanRecord& span) {
  return span.experiment >= 0;
}

// The target.* / sim.* split of experiment spans.
void TargetMetrics(const std::vector<trace::SpanRecord>& spans,
                   std::uint64_t instructions, Metrics* metrics) {
  Metrics& m = *metrics;
  const auto in_experiments = trace::Aggregate(spans, IsExperimentSpan);
  const auto all = trace::Aggregate(spans);
  const auto get = [](const auto& totals, const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? trace::NameTotals{} : it->second;
  };
  const trace::NameTotals experiment = get(in_experiments, "target.experiment");
  const double n = std::max<double>(1.0, static_cast<double>(experiment.count));
  m["target.experiment_s"] = experiment.total_s / n;
  for (const char* phase :
       {"init", "load", "download", "start", "restore", "to_trigger",
        "scan_read", "inject", "scan_write", "to_end", "readback"}) {
    const std::string name = std::string("target.") + phase;
    m[name + "_s"] = get(in_experiments, name.c_str()).self_s / n;
  }
  m["target.experiment_self_s"] = experiment.self_s / n;
  m["target.phase_cover_frac"] =
      experiment.total_s > 0 ? 1.0 - experiment.self_s / experiment.total_s : 0;
  const trace::NameTotals reference = get(all, "target.reference_run");
  m["target.reference_run_s"] =
      reference.count == 0 ? 0 : reference.total_s / reference.count;
  m["sim.scan_share"] =
      experiment.total_s > 0
          ? (get(in_experiments, "target.scan_read").self_s +
             get(in_experiments, "target.scan_write").self_s) /
                experiment.total_s
          : 0;
  const double stepping = get(in_experiments, "target.to_trigger").self_s +
                          get(in_experiments, "target.to_end").self_s;
  m["sim.ns_per_instr"] =
      instructions == 0 ? 0 : 1e9 * stepping / static_cast<double>(instructions);
}

// Summed duration of every span called `name`.
double SpanSeconds(const std::vector<trace::SpanRecord>& spans,
                   const char* name) {
  double total = 0.0;
  for (const trace::SpanRecord& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      total += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

double MeanTotal(const std::map<std::string, trace::NameTotals>& totals,
                 const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : it->second.total_s / static_cast<double>(it->second.count);
}

double MeanSelf(const std::map<std::string, trace::NameTotals>& totals,
                const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() || it->second.count == 0
             ? 0.0
             : it->second.self_s / static_cast<double>(it->second.count);
}

Result<Report> TracedBatch(const Options& options, const ScratchRoot& root) {
  const std::size_t jobs = WorkloadJobs(options.workload);
  const auto ini = [&](std::size_t k) {
    return BatchCampaignIni(options.workload, options.seed, k, options.smoke);
  };
  Report report;
  Metrics& m = report.metrics;

  // Untraced product run of campaign 0: the gate's reference and the
  // base of trace.overhead_frac.
  ASSIGN_OR_RETURN(const CampaignOutcome product,
                   RunProductCampaign(ini(0), root.Sub("product"), jobs));
  RemoveDir(root.Sub("product"));

  trace::Enable(true);
  std::vector<CampaignOutcome> outcomes;
  std::uint64_t first_instructions = 0;
  const std::uint64_t instructions_before = TimedInstructionsExecuted();
  const Clock::time_point window = Clock::now();
  for (std::size_t k = 0; k == 0 || Since(window) < options.seconds; ++k) {
    const std::string dir = root.Sub("traced" + std::to_string(k));
    ASSIGN_OR_RETURN(CampaignOutcome outcome, RunTracedCampaign(ini(k), dir));
    if (k == 0) {
      first_instructions = TimedInstructionsExecuted() - instructions_before;
    } else {
      RemoveDir(dir);
    }
    outcomes.push_back(std::move(outcome));
  }
  const std::uint64_t instructions =
      TimedInstructionsExecuted() - instructions_before;
  std::vector<trace::SpanRecord> serial = trace::Collect();
  const CampaignOutcome& first = outcomes.front();
  RETURN_IF_ERROR(GateDigest(first.name + " traced serial vs product",
                             product.digest, first.digest));
  double loop_s = 0.0;
  for (const CampaignOutcome& outcome : outcomes) {
    loop_s += outcome.run_s;
    report.attempted += outcome.planned;
    report.failed += outcome.dispositions.abandoned;
  }

  TargetMetrics(serial, instructions, &m);
  const auto all = trace::Aggregate(serial);
  m["sim.instructions"] = static_cast<double>(first_instructions);
  m["core.prepare_self_s"] = MeanSelf(all, "core.prepare");
  m["core.sample_s"] = MeanTotal(all, "core.sample");
  m["core.supervise_self_s"] = MeanSelf(all, "core.supervise");
  m["core.checkpoint_forks"] = static_cast<double>(first.summary.checkpoint_forks);
  m["core.instructions_skipped"] =
      static_cast<double>(first.summary.instructions_skipped);
  m["core.equiv_classes"] = static_cast<double>(first.summary.equiv_classes);
  m["core.equiv_duplicates"] = static_cast<double>(first.summary.equiv_duplicates);
  m["core.attempts"] = static_cast<double>(first.dispositions.attempts);
  m["core.abandoned"] = static_cast<double>(first.dispositions.abandoned);
  m["db.log_s"] = MeanTotal(all, "db.log");
  m["db.row_bytes"] = first.row_bytes;
  m["db.commit_s"] = MeanTotal(all, "db.commit");
  m["db.commits"] = static_cast<double>(first.commits);
  m["db.compactions"] = static_cast<double>(first.compactions);

  double traced_rate = static_cast<double>(first.planned) / first.run_s;
  if (jobs > 1) {
    // The sharded runner with the timed target minted per worker: its
    // busy fraction, and the traced rate for the overhead figure.
    ASSIGN_OR_RETURN(const CampaignOutcome parallel,
                     RunProductCampaign(ini(0), root.Sub("parallel"), jobs,
                                        TimedTargetFactory()));
    std::vector<trace::SpanRecord> fleet = trace::Collect();
    RETURN_IF_ERROR(GateDigest(first.name + " traced 2-worker vs product",
                               product.digest, parallel.digest));
    m["core.worker_busy_frac"] =
        SpanSeconds(fleet, "target.experiment") /
        (static_cast<double>(jobs) * parallel.run_s);
    traced_rate = static_cast<double>(parallel.planned) / parallel.run_s;
    serial.insert(serial.end(), fleet.begin(), fleet.end());
  } else {
    m["core.worker_busy_frac"] = SpanSeconds(serial, "target.experiment") / loop_s;
  }
  m["trace.overhead_frac"] =
      1.0 - traced_rate / (static_cast<double>(product.planned) / product.run_s);

  ShortOpCalls untimed;
  RETURN_IF_ERROR(MeasureReopenAndReport(root.Sub("traced0"), first.name, 0, &untimed));
  std::vector<trace::SpanRecord> tail = trace::Collect();
  trace::Enable(false);
  const auto tail_totals = trace::Aggregate(tail);
  m["db.open_s"] = MeanTotal(tail_totals, "db.open");
  m["core.analyze_s"] = MeanTotal(tail_totals, "core.analyze");
  m["core.format_s"] = MeanTotal(tail_totals, "core.format");
  serial.insert(serial.end(), tail.begin(), tail.end());
  report.spans = std::move(serial);
  return report;
}

// ---- serve_stream ----------------------------------------------------

// The gate for a finished stream: every campaign completed, its logged
// rows equal a one-shot product run of the same ini (names masked), and
// its taxonomy accounts for every planned experiment.
Status GateStream(const Options& options, const ScratchRoot& root,
                  const std::string& daemon_root, const ServeStream& stream,
                  std::map<std::size_t, std::uint64_t>* oneshots,
                  Dispositions* dispositions) {
  for (const ServedCampaign& campaign : stream.campaigns) {
    if (campaign.end_state != "completed") {
      return goofi::InternalError("campaign " + campaign.name + " ended " +
                                  campaign.end_state);
    }
    if (oneshots->count(campaign.slot) == 0) {
      const std::string name = "oneshot" + std::to_string(campaign.slot);
      const std::string dir = root.Sub(name);
      RETURN_IF_ERROR(RunProductCampaign(ServeCampaignIni(options.seed,
                                                          campaign.slot, name,
                                                          options.smoke),
                                         dir, 1)
                          .status());
      ASSIGN_OR_RETURN(const db::Database reopened, db::Database::Open(dir));
      (*oneshots)[campaign.slot] = LoggedStateDigest(reopened, name);
      RemoveDir(dir);
    }
    ASSIGN_OR_RETURN(db::Database served,
                     db::Database::Open(ServedCampaignDir(daemon_root,
                                                          campaign.name)));
    RETURN_IF_ERROR(GateDigest(campaign.name + " served vs one-shot",
                               (*oneshots)[campaign.slot],
                               LoggedStateDigest(served, campaign.name)));
    ASSIGN_OR_RETURN(const core::CampaignAnalysis analysis,
                     core::AnalyzeCampaign(served, campaign.name, false));
    RETURN_IF_ERROR(CheckTaxonomy(analysis, campaign.experiments));
    const Dispositions counts = CountDispositions(served);
    dispositions->attempts += counts.attempts;
    dispositions->abandoned += counts.abandoned;
  }
  return Status::Ok();
}

void CountStream(const ServeStream& stream, Report* report) {
  report->attempted += stream.campaigns.size() + stream.refused;
  report->failed += stream.refused;
  for (const ServedCampaign& campaign : stream.campaigns) {
    if (campaign.end_state != "completed") ++report->failed;
  }
}

double StreamRate(const ServeStream& stream) {
  double experiments = 0.0;
  for (const ServedCampaign& campaign : stream.campaigns) {
    experiments += static_cast<double>(campaign.experiments);
  }
  return experiments / stream.wall_s;
}

ServeOptions StreamOptions(const Options& options, const std::string& root,
                           const std::string& socket, double seconds,
                           const std::string& prefix) {
  ServeOptions serve;
  serve.root = root;
  serve.socket_path = socket;
  serve.seed = options.seed;
  serve.seconds = seconds;
  serve.smoke = options.smoke;
  serve.name_prefix = prefix;
  return serve;
}

Result<Report> UntracedServe(const Options& options, const ScratchRoot& root) {
  Report report;
  Metrics& m = report.metrics;
  // Streams of kServeStreamSeconds, each on a freshly started daemon and
  // gated before the next, for the window (at least kMinPasses); every
  // metric keeps its fastest stream.
  const double stream_seconds =
      std::min(kServeStreamSeconds, options.seconds / kMinPasses);
  BestOfPasses best;
  ShortOpCalls short_ops;
  double best_rate = 0.0;
  std::map<std::size_t, std::uint64_t> oneshots;
  const Clock::time_point window = Clock::now();
  double last_pass_s = 0.0;
  for (std::size_t pass = 0;
       pass < kMinPasses || Since(window) + last_pass_s <= options.seconds;
       ++pass) {
    const Clock::time_point pass_start = Clock::now();
    const std::string tag = "pass" + std::to_string(pass);
    const std::string daemon_root = root.Sub(tag + "serve");
    SyncFileSystem(root.path());
    ASSIGN_OR_RETURN(const ServeStream stream,
                     RunServeStream(StreamOptions(
                         options, daemon_root, tag + ".sock", stream_seconds,
                         tag + "-campaign-")));
    if (stream.campaigns.empty()) {
      return goofi::InternalError("no campaign finished in the stream");
    }
    CountStream(stream, &report);
    std::vector<double> turnaround;
    double bytes = 0.0;
    double experiments = 0.0;
    for (const ServedCampaign& campaign : stream.campaigns) {
      turnaround.push_back(campaign.turnaround_s);
      bytes += static_cast<double>(
          DirectoryBytes(ServedCampaignDir(daemon_root, campaign.name)));
      experiments += static_cast<double>(campaign.experiments);
    }
    best_rate = std::max(best_rate, StreamRate(stream));
    best.Add("turnaround_p50_s", Quantile(turnaround, 0.5));
    best.Add("turnaround_p90_s", Quantile(turnaround, 0.9));
    if (pass == 0) m["db_bytes_per_exp"] = bytes / experiments;
    const ServedCampaign& first = stream.campaigns.front();
    // Each daemon root (its socket inside) is removed right after its
    // start is timed: letting roots pile up in one directory makes the
    // next starts several times slower.
    RETURN_IF_ERROR(ShortOpBurst(
        [&](int rep) {
          const std::string daemon = tag + "-daemon" + std::to_string(rep);
          Result<double> seconds =
              TimeDaemonStart(root.Sub(daemon), daemon + "/serve.sock");
          RemoveDir(root.Sub(daemon));
          return seconds;
        },
        ServedCampaignDir(daemon_root, first.name), first.name, first.slot,
        &short_ops));

    Dispositions dispositions;
    RETURN_IF_ERROR(GateStream(options, root, daemon_root, stream, &oneshots,
                               &dispositions));
    report.failed += dispositions.abandoned;
    RemoveDir(daemon_root);
    last_pass_s = Since(pass_start);
  }
  m["exps_per_s"] = best_rate;
  best.Report(&m);
  short_ops.Report(&m);
  m["peak_rss_mb"] = PeakRssMb();
  return report;
}

// The daemon mints targets through the registry: bind "thor_rd",
// before the built-ins register, to the timed subclass whenever tracing
// is on.
Status BindTimedThorRd() {
  return core::TargetRegistry::Instance().Register(
      "thor_rd", []() -> std::unique_ptr<goofi::target::TargetSystemInterface> {
        if (trace::enabled()) return std::make_unique<TimedThorRdTarget>();
        return std::make_unique<goofi::target::ThorRdTarget>();
      });
}

Result<Report> TracedServe(const Options& options, const ScratchRoot& root) {
  Report report;
  Metrics& m = report.metrics;

  // Half the window untraced (the overhead base), half traced.
  const double half = options.seconds / 2;
  const std::string plain_root = root.Sub("plain");
  ASSIGN_OR_RETURN(const ServeStream plain,
                   RunServeStream(StreamOptions(options, plain_root,
                                                "plain.sock", half, "plain-")));
  trace::Enable(true);
  const std::uint64_t instructions_before = TimedInstructionsExecuted();
  const std::string traced_root = root.Sub("traced");
  auto traced = RunServeStream(
      StreamOptions(options, traced_root, "traced.sock", half, "traced-"));
  const std::uint64_t instructions =
      TimedInstructionsExecuted() - instructions_before;
  std::vector<trace::SpanRecord> spans = trace::Collect();
  if (!traced.ok()) return traced.status();
  if (traced->campaigns.empty() || plain.campaigns.empty()) {
    return goofi::InternalError("no campaign finished in the stream");
  }
  CountStream(plain, &report);
  CountStream(*traced, &report);

  TargetMetrics(spans, instructions, &m);
  m["sim.instructions"] = static_cast<double>(instructions);
  m["core.worker_busy_frac"] =
      SpanSeconds(spans, "target.experiment") /
      (static_cast<double>(kServeFleetWorkers) * traced->wall_s);
  std::vector<double> submit, queue_wait, run;
  for (const ServedCampaign& campaign : traced->campaigns) {
    submit.push_back(campaign.submit_s);
    queue_wait.push_back(campaign.queue_wait_s);
    run.push_back(campaign.run_s);
  }
  const auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double value : values) sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  m["service.submit_s"] = mean(submit);
  m["service.queue_wait_s"] = mean(queue_wait);
  m["service.run_s"] = mean(run);
  m["service.status_rtt_s"] = traced->status_rtt_s;
  m["service.refused"] = static_cast<double>(plain.refused + traced->refused);
  m["trace.overhead_frac"] = 1.0 - StreamRate(*traced) / StreamRate(plain);

  const ServedCampaign& first = traced->campaigns.front();
  ShortOpCalls untimed;
  RETURN_IF_ERROR(MeasureReopenAndReport(
      ServedCampaignDir(traced_root, first.name), first.name, first.slot,
      &untimed));
  std::vector<trace::SpanRecord> tail = trace::Collect();
  trace::Enable(false);
  const auto tail_totals = trace::Aggregate(tail);
  m["db.open_s"] = MeanTotal(tail_totals, "db.open");
  m["core.analyze_s"] = MeanTotal(tail_totals, "core.analyze");
  m["core.format_s"] = MeanTotal(tail_totals, "core.format");

  std::map<std::size_t, std::uint64_t> oneshots;
  Dispositions dispositions;
  RETURN_IF_ERROR(GateStream(options, root, plain_root, plain, &oneshots,
                             &dispositions));
  RETURN_IF_ERROR(GateStream(options, root, traced_root, *traced, &oneshots,
                             &dispositions));
  m["core.attempts"] = static_cast<double>(dispositions.attempts);
  m["core.abandoned"] = static_cast<double>(dispositions.abandoned);
  report.failed += dispositions.abandoned;
  spans.insert(spans.end(), tail.begin(), tail.end());
  report.spans = std::move(spans);
  return report;
}

// ---- output ----------------------------------------------------------

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void PrintResult(const Report& report, bool per_layer) {
  std::string metrics;
  for (const MetricDef& def : kMetrics) {
    if (def.per_layer != per_layer) continue;
    const auto it = report.metrics.find(def.name);
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name,
                  it == report.metrics.end() ? 0.0 : it->second, def.unit);
    metrics += entry;
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              report.attempted, report.failed, metrics.c_str());
}

void PrintMetricList() {
  std::printf("[");
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"per_layer\": %s}",
                first ? "" : ", ", def.name, def.unit,
                def.per_layer ? "true" : "false");
    first = false;
  }
  std::printf("]\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <long_mission|equiv_parallel|"
               "serve_stream> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--trace-dump <file>] "
               "[--commit <id>] [--smoke]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  // glibc raises its mmap and trim thresholds as large blocks are freed,
  // and how far they have risen when a timed call runs varies from run
  // to run: a Database::Open then either maps its file buffers afresh
  // (about 650 page faults on an equiv_parallel campaign) or reuses heap
  // pages, and reopen_s came out bimodal run to run (6.0 or 7.0-7.8 ms).
  // Start every run where a long-running process ends up instead: the
  // thresholds at the ceiling glibc's own adjustment stops at.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      PrintMetricList();
      return 0;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--scratch" && has_value) {
      options.scratch = argv[++i];
    } else if (arg == "--trace-dump" && has_value) {
      options.trace_dump = argv[++i];
    } else if (arg == "--commit" && has_value) {
      options.commit = argv[++i];
    } else {
      return Usage();
    }
  }
  const auto parsed = ParseWorkload(workload);
  if (!parsed || options.scratch.empty() || !(options.seconds > 0)) {
    return Usage();
  }
  options.workload = *parsed;
  // The target registry is a process-wide vector with no lock, and
  // goofi_serve's campaign threads each populate it on first use
  // (service/executor.cpp MakeTarget -> RegisterBuiltinTargets): two
  // campaigns starting together on a fresh process race on it and can
  // crash the daemon. Populate it here, single-threaded, as goofi_tool
  // does before it starts any worker; the traced serve run binds its
  // timed "thor_rd" first.
  if (options.workload == Workload::kServeStream && options.trace) {
    if (const Status bound = BindTimedThorRd(); !bound.ok()) {
      std::fprintf(stderr, "error: %s\n", bound.ToString().c_str());
      return 1;
    }
  }
  core::RegisterBuiltinTargets(core::TargetRegistry::Instance());
  if (!options.trace_dump.empty()) {
    options.trace_dump = fs::absolute(options.trace_dump).string();
  }

  const double calibration_start_ms = CalibrationMs();
  auto root = ScratchRoot::Create(options.scratch);
  if (!root.ok()) {
    std::fprintf(stderr, "error: %s\n", root.status().ToString().c_str());
    return 1;
  }
  // The daemon's socket is bound by a path relative to the scratch root
  // (sun_path holds only 108 bytes).
  const fs::path previous_cwd = fs::current_path();
  fs::current_path((*root)->path());
  Result<Report> report = goofi::InternalError("not run");
  const bool serve = options.workload == Workload::kServeStream;
  if (options.trace) {
    report = serve ? TracedServe(options, **root) : TracedBatch(options, **root);
  } else {
    report = serve ? UntracedServe(options, **root)
                   : UntracedBatch(options, **root);
  }
  core::WaitForAbandonedTargets(std::chrono::milliseconds(10000));
  fs::current_path(previous_cwd);
  root->reset();
  if (!report.ok()) {
    std::fprintf(stderr, "correctness gate failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const double calibration_end_ms = CalibrationMs();
  if (!options.trace_dump.empty() &&
      !trace::WriteDump(options.trace_dump, report->spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", options.trace_dump.c_str());
    return 1;
  }

  std::printf("provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": %s, "
              "\"compiler\": %s, \"commit\": %s, \"calibration_ms_start\": %.4f, "
              "\"calibration_ms_end\": %.4f}\n",
              JsonString(WorkloadName(options.workload)).c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(__VERSION__).c_str(), JsonString(options.commit).c_str(),
              calibration_start_ms, calibration_end_ms);
  PrintResult(*report, options.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
