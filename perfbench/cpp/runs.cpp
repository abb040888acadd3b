#include "runs.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>

#include "core/analysis.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/goofi_schema.h"
#include "core/parallel_runner.h"
#include "core/registry.h"
#include "core/supervision.h"
#include "timed_target.h"
#include "trace.h"
#include "util/config.h"

namespace perfbench {

namespace core = goofi::core;
namespace db = goofi::db;
namespace fs = std::filesystem;
namespace target = goofi::target;
using goofi::Result;
using goofi::Status;

namespace {

// goofi_tool's commit cadence, in experiments.
constexpr std::size_t kCommitEvery = 32;

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Result<core::CampaignConfig> ParseIni(const std::string& ini) {
  ASSIGN_OR_RETURN(const goofi::Config file, goofi::Config::Parse(ini));
  const goofi::ConfigSection* section = file.FindSection("campaign");
  if (section == nullptr) {
    return goofi::InvalidArgumentError("no [campaign] section");
  }
  return core::ParseCampaignConfig(*section);
}

Result<std::unique_ptr<target::TargetSystemInterface>> MakeTarget(
    const std::string& name, const std::string& workload) {
  core::TargetRegistry& registry = core::TargetRegistry::Instance();
  core::RegisterBuiltinTargets(registry);
  ASSIGN_OR_RETURN(auto made, registry.Create(name));
  if (!workload.empty()) {
    ASSIGN_OR_RETURN(target::WorkloadSpec spec,
                     target::GetBuiltinWorkload(workload));
    RETURN_IF_ERROR(made->SetWorkload(std::move(spec)));
  }
  return made;
}

// A fresh WAL database with the schema committed, the target registered
// and the campaign row stored: what `goofi_tool run` does on a new --db.
Result<db::Database> CreateCampaignDatabase(const std::string& dir,
                                            const core::CampaignConfig& config) {
  db::Database database;
  RETURN_IF_ERROR(database.AttachWal(dir));
  RETURN_IF_ERROR(core::CreateGoofiSchema(database));
  RETURN_IF_ERROR(database.Commit());
  ASSIGN_OR_RETURN(auto registered, MakeTarget(config.target, ""));
  RETURN_IF_ERROR(core::RegisterTargetSystem(database, *registered,
                                             "goofi-tool-card", ""));
  RETURN_IF_ERROR(core::StoreCampaign(database, config));
  return database;
}

// The §3.4 analysis and its formatted report, as `goofi_tool run`
// prints them after the loop.
Result<core::CampaignAnalysis> Report(db::Database& database,
                                      const std::string& campaign) {
  ASSIGN_OR_RETURN(core::CampaignAnalysis analysis,
                   core::AnalyzeCampaign(database, campaign, false));
  if (core::FormatAnalysisReport(analysis).empty()) {
    return goofi::InternalError("empty analysis report");
  }
  return analysis;
}

// Mean encoded bytes of a LoggedSystemState row.
double MeanRowBytes(const db::Database& database) {
  const db::Table* logged = database.FindTable(core::kLoggedSystemStateTable);
  std::uint64_t bytes = 0;
  for (const db::Row& row : logged->rows()) {
    for (const db::Value& value : row) bytes += value.Encode().size();
  }
  return logged->rows().empty()
             ? 0.0
             : static_cast<double>(bytes) /
                   static_cast<double>(logged->rows().size());
}

}  // namespace

Result<CampaignOutcome> RunProductCampaign(const std::string& ini,
                                           const std::string& dir,
                                           std::size_t jobs,
                                           target::TargetFactory factory) {
  const auto start = std::chrono::steady_clock::now();
  ASSIGN_OR_RETURN(const core::CampaignConfig config, ParseIni(ini));
  ASSIGN_OR_RETURN(db::Database database, CreateCampaignDatabase(dir, config));
  ASSIGN_OR_RETURN(const core::CampaignConfig loaded,
                   core::LoadCampaign(database, config.name));
  if (!factory) {
    factory = [name = loaded.target]() { return MakeTarget(name, ""); };
  }

  CampaignOutcome outcome;
  outcome.name = config.name;
  outcome.planned = config.num_experiments;
  const auto loop_start = std::chrono::steady_clock::now();
  Result<core::CampaignSummary> summary = goofi::InternalError("not run");
  if (jobs > 1) {
    core::ParallelCampaignRunner runner(&database, factory, jobs);
    runner.set_checkpoint(dir, kCommitEvery);
    summary = runner.Run(config.name);
  } else {
    ASSIGN_OR_RETURN(auto reference, MakeTarget(loaded.target, loaded.workload));
    core::CampaignRunner runner(&database, reference.get());
    runner.set_target_factory(factory);
    runner.set_checkpoint(dir, kCommitEvery);
    summary = runner.Run(config.name);
  }
  outcome.run_s = Since(loop_start);
  if (!summary.ok()) return summary.status();
  ASSIGN_OR_RETURN(const core::CampaignAnalysis analysis,
                   Report(database, config.name));
  outcome.turnaround_s = Since(start);
  RETURN_IF_ERROR(CheckTaxonomy(analysis, outcome.planned));
  RETURN_IF_ERROR(database.Persist(dir));
  core::WaitForAbandonedTargets(std::chrono::milliseconds(10000));

  outcome.summary = std::move(*summary);
  outcome.dispositions = CountDispositions(database);
  outcome.digest = LoggedStateDigest(database);
  return outcome;
}

Result<CampaignOutcome> RunTracedCampaign(const std::string& ini,
                                          const std::string& dir) {
  const auto start = std::chrono::steady_clock::now();
  ASSIGN_OR_RETURN(const core::CampaignConfig stored, ParseIni(ini));
  const std::string& name = stored.name;
  ASSIGN_OR_RETURN(db::Database database, CreateCampaignDatabase(dir, stored));
  const target::TargetFactory factory = TimedTargetFactory();
  TimedThorRdTarget reference;

  CampaignOutcome outcome;
  outcome.name = name;
  outcome.planned = stored.num_experiments;
  const auto loop_start = std::chrono::steady_clock::now();

  // The body of CampaignRunner::RunInternal (resume = false), call for
  // call, each call in its own span.
  std::optional<core::PreparedCampaign> prepared;
  {
    trace::Span span("core.prepare");
    ASSIGN_OR_RETURN(core::PreparedCampaign made,
                     core::PrepareCampaignRun(database, &reference, name,
                                              false, std::nullopt));
    prepared.emplace(std::move(made));
  }
  const core::CampaignConfig& config = prepared->config;
  core::CampaignSummary& summary = prepared->summary;
  const core::ExperimentPlan plan = prepared->MakePlan();
  const core::SupervisionPolicy policy =
      core::ResolveSupervisionPolicy(config, prepared->workload_termination);
  core::CheckpointCache fork_cache(plan.checkpoints);
  ASSIGN_OR_RETURN(auto minted, factory());
  RETURN_IF_ERROR(core::ConfigureTargetWorkload(config, minted.get()).status());
  core::TargetSlot slot = core::TargetSlot::Own(std::move(minted));

  const auto commit_on_cadence = [&]() -> Status {
    if (summary.experiments_run % kCommitEvery != 0) return Status::Ok();
    trace::Span span("db.commit");
    return database.Persist(dir);
  };
  for (std::size_t i = 0; i < config.num_experiments; ++i) {
    const auto index = static_cast<std::int64_t>(i);
    std::optional<target::ExperimentSpec> sampled;
    {
      trace::Span span("core.sample", index);
      ASSIGN_OR_RETURN(target::ExperimentSpec spec,
                       core::SampleExperimentSpec(
                           plan, i, &summary.preinjection_resamples));
      sampled.emplace(std::move(spec));
    }
    const target::ExperimentSpec& spec = *sampled;
    const core::PlannedEquivalence* equiv =
        plan.equivalence != nullptr && i < plan.equivalence->size()
            ? &(*plan.equivalence)[i]
            : nullptr;
    if (equiv != nullptr && equiv->representative != i) {
      core::ExperimentDisposition stub;
      stub.attempts = 0;
      stub.tool_status = core::kToolStatusEquivalent;
      {
        trace::Span span("db.log", index);
        RETURN_IF_ERROR(core::LogExperimentObservation(
            database, spec.name,
            core::ExperimentName(name, equiv->representative), name, &spec,
            nullptr, &stub, equiv));
      }
      ++summary.experiments_run;
      RETURN_IF_ERROR(commit_on_cadence());
      continue;
    }
    std::shared_ptr<const goofi::sim::Snapshot> start_snapshot;
    if (spec.trigger.kind == goofi::sim::Breakpoint::Kind::kInstretReached) {
      summary.trigger_instructions_total += spec.trigger.count;
      start_snapshot = fork_cache.ForTrigger(spec.trigger.count);
    }
    std::optional<core::SupervisedOutcome> supervised;
    {
      trace::Span span("core.supervise", index);
      trace::SetAmbientParent(span.id());
      auto ran = core::RunSupervisedExperiment(slot, spec, config, policy,
                                               factory, start_snapshot);
      trace::SetAmbientParent(0);
      if (!ran.ok()) return ran.status();
      supervised.emplace(std::move(*ran));
    }
    const bool completed = supervised->disposition.completed();
    {
      trace::Span span("db.log", index);
      RETURN_IF_ERROR(core::LogExperimentObservation(
          database, spec.name, "", name, &spec,
          completed ? &supervised->observation : nullptr,
          &supervised->disposition, equiv));
    }
    ++summary.experiments_run;
    summary.experiment_retries += supervised->disposition.attempts - 1;
    summary.targets_quarantined += supervised->disposition.quarantined;
    if (!completed) ++summary.experiments_abandoned;
    RETURN_IF_ERROR(commit_on_cadence());
  }
  summary.checkpoint_forks = fork_cache.forks();
  summary.instructions_skipped = fork_cache.instructions_skipped();
  {
    trace::Span span("core.status");
    RETURN_IF_ERROR(core::UpdateCampaignRunStatus(
        database, name, "completed", summary.experiments_run));
  }
  outcome.run_s = Since(loop_start);

  std::optional<core::CampaignAnalysis> analysis;
  {
    trace::Span span("core.analyze");
    ASSIGN_OR_RETURN(core::CampaignAnalysis analyzed,
                     core::AnalyzeCampaign(database, name, false));
    analysis.emplace(std::move(analyzed));
  }
  {
    trace::Span span("core.format");
    if (core::FormatAnalysisReport(*analysis).empty()) {
      return goofi::InternalError("empty analysis report");
    }
  }
  outcome.turnaround_s = Since(start);
  {
    trace::Span span("db.commit");
    RETURN_IF_ERROR(database.Persist(dir));
  }
  core::WaitForAbandonedTargets(std::chrono::milliseconds(10000));
  RETURN_IF_ERROR(CheckTaxonomy(*analysis, outcome.planned));

  outcome.dispositions = CountDispositions(database);
  outcome.commits = database.commit_sequence();
  outcome.compactions = database.generation();
  outcome.row_bytes = MeanRowBytes(database);
  outcome.digest = LoggedStateDigest(database);
  outcome.summary = std::move(summary);
  return outcome;
}

Result<double> TimeSetUp(const std::string& ini, const std::string& dir) {
  double seconds = 0.0;
  {
    const auto start = std::chrono::steady_clock::now();
    ASSIGN_OR_RETURN(const core::CampaignConfig config, ParseIni(ini));
    ASSIGN_OR_RETURN(db::Database database,
                     CreateCampaignDatabase(dir, config));
    ASSIGN_OR_RETURN(auto reference, MakeTarget(config.target, config.workload));
    ASSIGN_OR_RETURN(const core::PreparedCampaign prepared,
                     core::PrepareCampaignRun(database, reference.get(),
                                              config.name, false));
    seconds = Since(start);
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return seconds;
}

std::uint64_t LoggedStateDigest(const db::Database& database,
                                const std::string& mask) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const std::string& bytes) {
    for (const char ch : bytes) {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;  // value separator
    hash *= 1099511628211ull;
  };
  const db::Table* logged = database.FindTable(core::kLoggedSystemStateTable);
  if (logged == nullptr) return 0;
  for (const db::Row& row : logged->rows()) {
    for (const db::Value& value : row) {
      if (!mask.empty() && value.type() == db::ValueType::kText) {
        const std::string& text = value.AsText();
        std::string masked;
        std::size_t from = 0;
        for (std::size_t at = text.find(mask); at != std::string::npos;
             at = text.find(mask, from)) {
          masked.append(text, from, at - from).push_back('@');
          from = at + mask.size();
        }
        mix(masked.append(text, from));
      } else {
        mix(value.Encode());
      }
    }
  }
  return hash;
}

Status CheckTaxonomy(const core::CampaignAnalysis& analysis,
                     std::size_t planned) {
  const std::size_t classes = analysis.detected + analysis.escaped +
                              analysis.latent + analysis.overwritten +
                              analysis.not_injected;
  if (analysis.total + analysis.equivalence.duplicates != planned ||
      analysis.tool_incomplete != 0 ||
      analysis.equivalence.unresolved_duplicates != 0 ||
      classes != analysis.total) {
    return goofi::InternalError(
        "taxonomy of " + analysis.campaign + ": total " +
        std::to_string(analysis.total) + " + stubs " +
        std::to_string(analysis.equivalence.duplicates) + " != planned " +
        std::to_string(planned) + ", tool-incomplete " +
        std::to_string(analysis.tool_incomplete) + ", classes " +
        std::to_string(classes));
  }
  return Status::Ok();
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace perfbench

namespace perfbench {

Dispositions CountDispositions(const db::Database& database) {
  Dispositions counts;
  const db::Table* logged = database.FindTable(core::kLoggedSystemStateTable);
  if (logged == nullptr) return counts;
  for (const db::Row& row : logged->rows()) {
    // Columns 3/5/6: experiment_data, attempts, tool_status
    // (core/goofi_schema.cpp). Equivalence stubs log 0 attempts.
    if (row[3].is_null() || row[3].AsText() == "reference" ||
        row[5].is_null() || row[6].is_null()) {
      continue;
    }
    counts.attempts += static_cast<std::size_t>(row[5].AsInteger());
    const std::string& status = row[6].AsText();
    if (status != core::kToolStatusOk && status != core::kToolStatusEquivalent) {
      ++counts.abandoned;
    }
  }
  return counts;
}

}  // namespace perfbench
