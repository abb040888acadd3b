#include "timed_target.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "trace.h"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_instructions{0};

// "<campaign>/exp00042" -> 42; anything else -> -1.
std::int64_t ExperimentIndex(const std::string& name) {
  const std::size_t at = name.rfind("/exp");
  if (at == std::string::npos) return -1;
  return std::strtoll(name.c_str() + at + 4, nullptr, 10);
}

}  // namespace

using goofi::Status;
using goofi::target::ThorRdTarget;

Status TimedThorRdTarget::MakeReferenceRun() {
  experiment_ = -1;
  trace::Span span("target.reference_run");
  return ThorRdTarget::MakeReferenceRun();
}

Status TimedThorRdTarget::RunExperiment() {
  experiment_ = ExperimentIndex(experiment().name);
  const std::uint64_t start =
      start_snapshot() != nullptr ? start_snapshot()->instret : 0;
  Status status = Status::Ok();
  {
    trace::Span span("target.experiment", experiment_);
    status = ThorRdTarget::RunExperiment();
  }
  if (status.ok() && observation().instructions > start) {
    g_instructions.fetch_add(observation().instructions - start,
                             std::memory_order_relaxed);
  }
  return status;
}

Status TimedThorRdTarget::RestoreSnapshot(const goofi::sim::Snapshot& snapshot) {
  trace::Span span("target.restore", experiment_);
  return ThorRdTarget::RestoreSnapshot(snapshot);
}

Status TimedThorRdTarget::initTestCard() {
  trace::Span span("target.init", experiment_);
  return ThorRdTarget::initTestCard();
}

Status TimedThorRdTarget::loadWorkload() {
  trace::Span span("target.load", experiment_);
  return ThorRdTarget::loadWorkload();
}

Status TimedThorRdTarget::writeMemory() {
  trace::Span span("target.download", experiment_);
  return ThorRdTarget::writeMemory();
}

Status TimedThorRdTarget::runWorkload() {
  trace::Span span("target.start", experiment_);
  return ThorRdTarget::runWorkload();
}

Status TimedThorRdTarget::waitForBreakpoint() {
  trace::Span span("target.to_trigger", experiment_);
  return ThorRdTarget::waitForBreakpoint();
}

Status TimedThorRdTarget::readScanChain() {
  trace::Span span("target.scan_read", experiment_);
  return ThorRdTarget::readScanChain();
}

Status TimedThorRdTarget::injectFault() {
  trace::Span span("target.inject", experiment_);
  return ThorRdTarget::injectFault();
}

Status TimedThorRdTarget::writeScanChain() {
  trace::Span span("target.scan_write", experiment_);
  return ThorRdTarget::writeScanChain();
}

Status TimedThorRdTarget::waitForTermination() {
  trace::Span span("target.to_end", experiment_);
  return ThorRdTarget::waitForTermination();
}

Status TimedThorRdTarget::readMemory() {
  trace::Span span("target.readback", experiment_);
  return ThorRdTarget::readMemory();
}

std::uint64_t TimedInstructionsExecuted() { return g_instructions.load(); }

goofi::target::TargetFactory TimedTargetFactory() {
  return []() -> goofi::Result<std::unique_ptr<goofi::target::TargetSystemInterface>> {
    return std::unique_ptr<goofi::target::TargetSystemInterface>(
        std::make_unique<TimedThorRdTarget>());
  };
}

}  // namespace perfbench
