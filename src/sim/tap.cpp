#include "sim/tap.h"

#include <cassert>

namespace goofi::sim {

const char* TapStateName(TapState state) {
  switch (state) {
    case TapState::kTestLogicReset: return "Test-Logic-Reset";
    case TapState::kRunTestIdle: return "Run-Test/Idle";
    case TapState::kSelectDrScan: return "Select-DR-Scan";
    case TapState::kCaptureDr: return "Capture-DR";
    case TapState::kShiftDr: return "Shift-DR";
    case TapState::kExit1Dr: return "Exit1-DR";
    case TapState::kPauseDr: return "Pause-DR";
    case TapState::kExit2Dr: return "Exit2-DR";
    case TapState::kUpdateDr: return "Update-DR";
    case TapState::kSelectIrScan: return "Select-IR-Scan";
    case TapState::kCaptureIr: return "Capture-IR";
    case TapState::kShiftIr: return "Shift-IR";
    case TapState::kExit1Ir: return "Exit1-IR";
    case TapState::kPauseIr: return "Pause-IR";
    case TapState::kExit2Ir: return "Exit2-IR";
    case TapState::kUpdateIr: return "Update-IR";
  }
  return "?";
}

TapController::TapController(const ScanChainSet* chains, Cpu* cpu)
    : chains_(chains), cpu_(cpu) {
  dr_shift_.Resize(1);
}

TapState TapController::NextState(bool tms) const {
  // The IEEE 1149.1 state graph.
  switch (state_) {
    case TapState::kTestLogicReset:
      return tms ? TapState::kTestLogicReset : TapState::kRunTestIdle;
    case TapState::kRunTestIdle:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectDrScan:
      return tms ? TapState::kSelectIrScan : TapState::kCaptureDr;
    case TapState::kCaptureDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kShiftDr:
      return tms ? TapState::kExit1Dr : TapState::kShiftDr;
    case TapState::kExit1Dr:
      return tms ? TapState::kUpdateDr : TapState::kPauseDr;
    case TapState::kPauseDr:
      return tms ? TapState::kExit2Dr : TapState::kPauseDr;
    case TapState::kExit2Dr:
      return tms ? TapState::kUpdateDr : TapState::kShiftDr;
    case TapState::kUpdateDr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
    case TapState::kSelectIrScan:
      return tms ? TapState::kTestLogicReset : TapState::kCaptureIr;
    case TapState::kCaptureIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kShiftIr:
      return tms ? TapState::kExit1Ir : TapState::kShiftIr;
    case TapState::kExit1Ir:
      return tms ? TapState::kUpdateIr : TapState::kPauseIr;
    case TapState::kPauseIr:
      return tms ? TapState::kExit2Ir : TapState::kPauseIr;
    case TapState::kExit2Ir:
      return tms ? TapState::kUpdateIr : TapState::kShiftIr;
    case TapState::kUpdateIr:
      return tms ? TapState::kSelectDrScan : TapState::kRunTestIdle;
  }
  return TapState::kTestLogicReset;
}

std::size_t TapController::SelectedRegisterLength() const {
  switch (instruction_) {
    case TapInstruction::kIdcode: return 32;
    case TapInstruction::kBypass: return 1;
    case TapInstruction::kScanInternal: {
      const ScanChain* chain = chains_->FindChain("internal");
      return chain != nullptr ? chain->bit_length() : 1;
    }
    case TapInstruction::kScanBoundary: {
      const ScanChain* chain = chains_->FindChain("boundary");
      return chain != nullptr ? chain->bit_length() : 1;
    }
  }
  return 1;
}

void TapController::CaptureSelected() {
  switch (instruction_) {
    case TapInstruction::kIdcode:
      dr_shift_.Resize(32);
      dr_shift_.SetField(0, 32, 0x7408D001u);
      break;
    case TapInstruction::kBypass:
      dr_shift_.Resize(1);
      dr_shift_.Set(0, false);
      break;
    case TapInstruction::kScanInternal:
      dr_shift_ = chains_->FindChain("internal")->Capture(*cpu_);
      break;
    case TapInstruction::kScanBoundary:
      dr_shift_ = chains_->FindChain("boundary")->Capture(*cpu_);
      break;
  }
}

void TapController::UpdateSelected() {
  switch (instruction_) {
    case TapInstruction::kIdcode:
    case TapInstruction::kBypass:
      break;  // no update side effect
    case TapInstruction::kScanInternal:
      chains_->FindChain("internal")->Apply(*cpu_, dr_shift_);
      break;
    case TapInstruction::kScanBoundary:
      chains_->FindChain("boundary")->Apply(*cpu_, dr_shift_);
      break;
  }
}

bool TapController::Clock(bool tms, bool tdi) {
  ++tck_cycles_;
  bool tdo = false;
  // Actions of the *current* state on this clock.
  switch (state_) {
    case TapState::kCaptureDr:
      CaptureSelected();
      break;
    case TapState::kShiftDr: {
      // Bit 0 exits on TDO; TDI enters at the top.
      BitVector in(1);
      in.Set(0, tdi);
      tdo = dr_shift_.ShiftRightInsert(in).Get(0);
      break;
    }
    case TapState::kCaptureIr:
      ir_shift_ = 0x1;  // IEEE: capture 0b...01
      break;
    case TapState::kShiftIr:
      tdo = (ir_shift_ & 1) != 0;
      ir_shift_ = static_cast<std::uint8_t>(
          (ir_shift_ >> 1) | (tdi ? 0x8 : 0x0));
      break;
    default:
      break;
  }
  const TapState next = NextState(tms);
  // Update actions fire on entering the update states.
  if (next == TapState::kUpdateDr && state_ != TapState::kUpdateDr) {
    // dr_shift_ now holds the image shifted in through TDI.
    UpdateSelected();
  }
  if (next == TapState::kUpdateIr && state_ != TapState::kUpdateIr) {
    instruction_ = static_cast<TapInstruction>(ir_shift_ & 0xf);
  }
  if (next == TapState::kTestLogicReset) {
    instruction_ = TapInstruction::kBypass;
  }
  state_ = next;
  return tdo;
}

BitVector TapController::ShiftDataRegister(const BitVector& tdi) {
  assert(state_ == TapState::kShiftDr);
  assert(!tdi.empty() && tdi.size() <= dr_shift_.size());
  // TMS stays 0 until the last bit, so every clock but the last stays
  // in Shift-DR and the last enters Exit1-DR; neither is an update
  // state, so there are no side effects beyond the shift itself.
  tck_cycles_ += tdi.size();
  state_ = TapState::kExit1Dr;
  return dr_shift_.ShiftRightInsert(tdi);
}

void TapController::Reset() {
  for (int i = 0; i < 5; ++i) Clock(/*tms=*/true, /*tdi=*/false);
  Clock(/*tms=*/false, /*tdi=*/false);  // settle in Run-Test/Idle
}

void TapController::LoadInstruction(TapInstruction instruction) {
  // From Run-Test/Idle: 1,1 -> Select-IR; 0 -> Capture-IR; 0 -> Shift-IR.
  if (state_ == TapState::kTestLogicReset) Clock(false, false);
  assert(state_ == TapState::kRunTestIdle);
  Clock(true, false);   // Select-DR-Scan
  Clock(true, false);   // Select-IR-Scan
  Clock(false, false);  // Capture-IR
  Clock(false, false);  // -> Shift-IR (capture happened on that clock)
  const std::uint8_t bits = static_cast<std::uint8_t>(instruction);
  // Shift 4 bits, LSB first; the last shift exits to Exit1-IR.
  for (int i = 0; i < 4; ++i) {
    const bool tdi = ((bits >> i) & 1) != 0;
    Clock(/*tms=*/i == 3, tdi);
  }
  Clock(true, false);   // Update-IR (instruction latched here)
  Clock(false, false);  // Run-Test/Idle
}

BitVector TapController::ReadDataRegister() {
  // Read without modifying: shift the captured image out and right back
  // in (the bits we shift in are the ones we just read).
  assert(state_ == TapState::kRunTestIdle);
  Clock(true, false);   // Select-DR-Scan
  Clock(false, false);  // Capture-DR
  Clock(false, false);  // -> Shift-DR (capture happened on that clock)
  const std::size_t n = SelectedRegisterLength();
  assert(dr_shift_.size() == n);
  // First pass: read all bits, feeding zeros; ends in Exit1-DR.
  BitVector out = ShiftDataRegister(BitVector(n));
  // Update-DR now would apply the zeros we shifted in, so detour
  // Exit1 -> Pause -> Exit2 -> Shift, shift the saved image back in,
  // then update.
  Clock(false, false);  // Pause-DR
  Clock(true, false);   // Exit2-DR
  Clock(false, false);  // Shift-DR
  ShiftDataRegister(out);
  Clock(true, false);   // Update-DR (writes back what we read: no-op image)
  Clock(false, false);  // Run-Test/Idle
  return out;
}

BitVector TapController::ExchangeDataRegister(const BitVector& image) {
  assert(state_ == TapState::kRunTestIdle);
  assert(image.size() == SelectedRegisterLength());
  Clock(true, false);   // Select-DR-Scan
  Clock(false, false);  // Capture-DR
  Clock(false, false);  // -> Shift-DR
  assert(dr_shift_.size() == image.size());
  BitVector out = ShiftDataRegister(image);
  Clock(true, false);   // Update-DR: the shifted-in image is applied
  Clock(false, false);  // Run-Test/Idle
  return out;
}

}  // namespace goofi::sim
