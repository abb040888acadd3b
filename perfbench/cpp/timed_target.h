// The Thor RD target with every Fig. 3 operation timed.
//
// The paper's plugin seam: a target is a TargetSystemInterface, so a
// subclass can wrap each abstract operation without touching the
// library. Every override opens a span and forwards to ThorRdTarget;
// the logged observations are the base target's, bit for bit.
#pragma once

#include <cstdint>
#include <memory>

#include "target/factory.h"
#include "target/thor_rd_target.h"

namespace perfbench {

class TimedThorRdTarget : public goofi::target::ThorRdTarget {
 public:
  goofi::Status MakeReferenceRun() override;
  goofi::Status RunExperiment() override;
  goofi::Status RestoreSnapshot(const goofi::sim::Snapshot& snapshot) override;

 protected:
  goofi::Status initTestCard() override;
  goofi::Status loadWorkload() override;
  goofi::Status writeMemory() override;
  goofi::Status runWorkload() override;
  goofi::Status waitForBreakpoint() override;
  goofi::Status readScanChain() override;
  goofi::Status injectFault() override;
  goofi::Status writeScanChain() override;
  goofi::Status waitForTermination() override;
  goofi::Status readMemory() override;

 private:
  std::int64_t experiment_ = -1;  // plan index of the run in flight
};

// Instructions the timed targets executed in experiments (not in
// reference runs), summed over every instance; checkpoint-forked runs
// count only what they ran after the restored snapshot.
std::uint64_t TimedInstructionsExecuted();

// Mints TimedThorRdTargets with no workload; the campaign runners
// install the campaign's workload themselves.
goofi::target::TargetFactory TimedTargetFactory();

}  // namespace perfbench
