// Every metric the benchmark reports, with its unit. An untraced run
// prints every end-to-end metric; a traced run prints every per-layer
// metric (0 where a layer does not take part in the workload).
// BENCHMARK.json lists the same names and units; the schema test in
// perfbench/tests checks that the two agree.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

inline constexpr MetricDef kMetrics[] = {
    // ---- end to end ----------------------------------------------------
    {"exps_per_s", "1/s", false},
    {"setup_s", "s", false},
    {"report_s", "s", false},
    {"reopen_s", "s", false},
    {"db_bytes_per_exp", "B", false},
    {"peak_rss_mb", "MB", false},
    {"turnaround_p50_s", "s", false},
    {"turnaround_p90_s", "s", false},
    // ---- target layer: mean self time per experiment, by Fig. 3 phase --
    {"target.experiment_s", "s", true},
    {"target.init_s", "s", true},
    {"target.load_s", "s", true},
    {"target.download_s", "s", true},
    {"target.start_s", "s", true},
    {"target.restore_s", "s", true},
    {"target.to_trigger_s", "s", true},
    {"target.scan_read_s", "s", true},
    {"target.inject_s", "s", true},
    {"target.scan_write_s", "s", true},
    {"target.to_end_s", "s", true},
    {"target.readback_s", "s", true},
    {"target.experiment_self_s", "s", true},
    {"target.phase_cover_frac", "frac", true},
    {"target.reference_run_s", "s", true},
    // ---- simulator -------------------------------------------------------
    {"sim.scan_share", "frac", true},
    {"sim.instructions", "count", true},
    {"sim.ns_per_instr", "ns", true},
    // ---- core: campaign machinery ----------------------------------------
    {"core.prepare_self_s", "s", true},
    {"core.sample_s", "s", true},
    {"core.supervise_self_s", "s", true},
    {"core.worker_busy_frac", "frac", true},
    {"core.checkpoint_forks", "count", true},
    {"core.instructions_skipped", "count", true},
    {"core.equiv_classes", "count", true},
    {"core.equiv_duplicates", "count", true},
    {"core.attempts", "count", true},
    {"core.abandoned", "count", true},
    {"core.analyze_s", "s", true},
    {"core.format_s", "s", true},
    // ---- db: the WAL store -----------------------------------------------
    {"db.log_s", "s", true},
    {"db.row_bytes", "B", true},
    {"db.commit_s", "s", true},
    {"db.commits", "count", true},
    {"db.compactions", "count", true},
    {"db.open_s", "s", true},
    // ---- service: the daemon as its clients see it -----------------------
    {"service.submit_s", "s", true},
    {"service.queue_wait_s", "s", true},
    {"service.run_s", "s", true},
    {"service.status_rtt_s", "s", true},
    {"service.refused", "count", true},
    // ---- the tracing itself ----------------------------------------------
    {"trace.overhead_frac", "frac", true},
};

// Median and interpolated quantile (linear between closest ranks, as
// numpy's default). Both return 0 for an empty sample.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench
