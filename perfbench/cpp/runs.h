// One campaign, run the three ways the benchmark needs:
//   - RunProductCampaign: wired exactly as `goofi_tool run` wires it
//     (WAL database, registry-minted supervised targets, group commit
//     every 32 experiments, serial or sharded runner), timed from the
//     outside only;
//   - RunTracedCampaign: the serial loop of CampaignRunner::RunInternal
//     driven by the benchmark through the same public calls, each call
//     wrapped in a span, on TimedThorRdTarget instances;
//   - TimeSetUp: the campaign's front half alone (fresh database,
//     schema, target registration, campaign row, PrepareCampaignRun).
// Plus the correctness gate's two checks: a digest of the logged rows
// and the §3.4 taxonomy accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/analysis.h"
#include "core/runner.h"
#include "db/database.h"
#include "target/factory.h"
#include "util/status.h"

namespace perfbench {

// Attempts and abandoned experiments, read back from the logged rows'
// disposition columns.
struct Dispositions {
  std::size_t attempts = 0;
  std::size_t abandoned = 0;
};

struct CampaignOutcome {
  std::string name;
  std::size_t planned = 0;       // planned experiments, stubs included
  double run_s = 0.0;            // wall time of the experiment loop
  double turnaround_s = 0.0;     // set-up start to formatted report
  std::uint64_t digest = 0;      // LoggedStateDigest of the finished db
  Dispositions dispositions;
  goofi::core::CampaignSummary summary;
  // Traced loop only: the database's commit and compaction counts, and
  // the mean encoded bytes of a logged row.
  std::uint64_t commits = 0;
  std::uint64_t compactions = 0;
  double row_bytes = 0.0;
};

// `factory` empty = the target registry, as goofi_tool uses it.
goofi::Result<CampaignOutcome> RunProductCampaign(
    const std::string& ini, const std::string& dir, std::size_t jobs,
    goofi::target::TargetFactory factory = nullptr);

goofi::Result<CampaignOutcome> RunTracedCampaign(const std::string& ini,
                                                 const std::string& dir);

// Seconds for one fresh set-up of the campaign in `dir` (removed again
// afterwards, outside the timed part).
goofi::Result<double> TimeSetUp(const std::string& ini,
                                const std::string& dir);

// FNV-1a over every LoggedSystemState row in table order. A non-empty
// `mask` replaces that prefix of every text value with "@", so two
// campaigns that differ only in name compare equal.
std::uint64_t LoggedStateDigest(const goofi::db::Database& database,
                                const std::string& mask = "");

// Checks the analysis of a finished campaign: classified experiments
// plus equivalence stubs equal `planned`, no tool-incomplete rows, no
// unresolved stubs, and the outcome classes sum to the total.
goofi::Status CheckTaxonomy(const goofi::core::CampaignAnalysis& analysis,
                            std::size_t planned);

Dispositions CountDispositions(const goofi::db::Database& database);

// On-disk bytes of every regular file under `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench
