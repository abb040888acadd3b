#include "sim/tap.h"

#include <gtest/gtest.h>

#include "sim/snapshot.h"
#include "util/rng.h"

namespace goofi::sim {
namespace {

class TapTest : public ::testing::Test {
 protected:
  TapTest() {
    EXPECT_TRUE(cpu_.memory().AddSegment({"code", 0, 0x1000, true, false,
                                          true, false}).ok());
    chains_ = BuildThorRdScanChains(cpu_);
    tap_ = std::make_unique<TapController>(&chains_, &cpu_);
  }

  Cpu cpu_;
  ScanChainSet chains_;
  std::unique_ptr<TapController> tap_;
};

TEST_F(TapTest, ResetLandsInRunTestIdle) {
  tap_->Reset();
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kBypass);
}

TEST_F(TapTest, FiveTmsOnesFromAnywhereResets) {
  tap_->Reset();
  // Wander into Shift-DR.
  tap_->Clock(true, false);   // Select-DR
  tap_->Clock(false, false);  // Capture-DR
  tap_->Clock(false, false);  // Shift-DR
  EXPECT_EQ(tap_->state(), TapState::kShiftDr);
  for (int i = 0; i < 5; ++i) tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kTestLogicReset);
}

TEST_F(TapTest, StateWalkMatchesIeee1149) {
  tap_->Reset();
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kSelectDrScan);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kCaptureDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit1Dr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kPauseDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit2Dr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kShiftDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit1Dr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kUpdateDr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);
}

TEST_F(TapTest, IdcodeReadsDeviceId) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kIdcode);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kIdcode);
  const BitVector idcode = tap_->ReadDataRegister();
  ASSERT_EQ(idcode.size(), 32u);
  EXPECT_EQ(idcode.GetField(0, 32), 0x7408D001u);
}

TEST_F(TapTest, BypassIsOneBit) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kBypass);
  const BitVector bypass = tap_->ReadDataRegister();
  EXPECT_EQ(bypass.size(), 1u);
}

TEST_F(TapTest, InternalChainReadMatchesDirectCapture) {
  cpu_.set_reg(5, 0x13572468);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const BitVector via_tap = tap_->ReadDataRegister();
  const BitVector direct = chains_.FindChain("internal")->Capture(cpu_);
  EXPECT_TRUE(via_tap == direct);
}

TEST_F(TapTest, ReadDataRegisterDoesNotDisturbState) {
  cpu_.set_reg(5, 0xABCD0123);
  cpu_.set_pc(0x40);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  tap_->ReadDataRegister();
  EXPECT_EQ(cpu_.reg(5), 0xABCD0123u);
  EXPECT_EQ(cpu_.pc(), 0x40u);
}

TEST_F(TapTest, ExchangeAppliesShiftedInImage) {
  // The SCIFI injection path: read, flip one bit, write back.
  cpu_.set_reg(9, 0);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  BitVector image = tap_->ReadDataRegister();
  const ScanChain* internal = chains_.FindChain("internal");
  const ScanElement* r9 = internal->FindElement("cpu.regs.r9");
  image.Flip(r9->position + 7);
  const BitVector old = tap_->ExchangeDataRegister(image);
  EXPECT_EQ(cpu_.reg(9), 0x80u);
  // The exchange shifted out the pre-injection state.
  EXPECT_EQ(old.GetField(r9->position, 32), 0u);
}

TEST_F(TapTest, BoundaryChainSelectable) {
  cpu_.set_mar(0xFEEDF00D);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanBoundary);
  const BitVector image = tap_->ReadDataRegister();
  ASSERT_EQ(image.size(), chains_.FindChain("boundary")->bit_length());
  EXPECT_EQ(image.GetField(0, 32), 0xFEEDF00Du);  // addr_bus is first
}

TEST_F(TapTest, TckCyclesScaleWithChainLength) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kIdcode);
  const std::uint64_t before_short = tap_->tck_cycles();
  tap_->ReadDataRegister();
  const std::uint64_t short_cost = tap_->tck_cycles() - before_short;

  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const std::uint64_t before_long = tap_->tck_cycles();
  tap_->ReadDataRegister();
  const std::uint64_t long_cost = tap_->tck_cycles() - before_long;
  // The internal chain is thousands of bits; IDCODE is 32.
  EXPECT_GT(long_cost, 50 * short_cost);
}

TEST_F(TapTest, TestLogicResetRevertsToBypass) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  for (int i = 0; i < 5; ++i) tap_->Clock(true, false);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kBypass);
}

// Differential proof of the word-level Shift-DR: one ShiftDataRegister
// call must be indistinguishable from clocking the same bits one TCK at
// a time — TDO stream, register contents, FSM state, cycle count, and
// the CPU state that Update-DR leaves behind.
class TapBulkShiftTest : public ::testing::TestWithParam<TapInstruction> {
 protected:
  struct Board {
    Board() {
      EXPECT_TRUE(cpu.memory().AddSegment({"code", 0, 0x1000, true, false,
                                           true, false}).ok());
      chains = BuildThorRdScanChains(cpu);
      tap = std::make_unique<TapController>(&chains, &cpu);
    }
    Cpu cpu;
    ScanChainSet chains;
    std::unique_ptr<TapController> tap;
  };

  static BitVector RandomBits(Rng& rng, std::size_t n) {
    BitVector v(n);
    for (std::size_t i = 0; i < n; ++i) v.Set(i, rng.NextBool());
    return v;
  }

  // Both boards get the same random CPU image through both chains, then
  // walk Run-Test/Idle -> Select-DR -> Capture-DR -> Shift-DR.
  void Prepare(Rng& rng) {
    for (const char* name : {"internal", "boundary"}) {
      const ScanChain* chain = bulk_.chains.FindChain(name);
      const BitVector image = RandomBits(rng, chain->bit_length());
      chain->Apply(bulk_.cpu, image);
      clocked_.chains.FindChain(name)->Apply(clocked_.cpu, image);
    }
    for (Board* board : {&bulk_, &clocked_}) {
      board->tap->Reset();
      board->tap->LoadInstruction(GetParam());
      board->tap->Clock(true, false);
      board->tap->Clock(false, false);
      board->tap->Clock(false, false);
      ASSERT_EQ(board->tap->state(), TapState::kShiftDr);
    }
  }

  std::size_t RegisterLength() const {
    return bulk_.tap->CaptureState().dr_shift.size();
  }

  // k TCKs both ways; every observable must agree.
  void ShiftBothWays(const BitVector& tdi) {
    const BitVector bulk_tdo = bulk_.tap->ShiftDataRegister(tdi);
    BitVector clocked_tdo(tdi.size());
    for (std::size_t i = 0; i < tdi.size(); ++i) {
      clocked_tdo.Set(i, clocked_.tap->Clock(/*tms=*/i + 1 == tdi.size(),
                                             tdi.Get(i)));
    }
    EXPECT_TRUE(bulk_tdo == clocked_tdo);
    ExpectTapsAgree();
    ExpectCpusAgree();  // no Update-DR side effect while shifting
  }

  void ExpectTapsAgree() {
    const TapControllerState a = bulk_.tap->CaptureState();
    const TapControllerState b = clocked_.tap->CaptureState();
    EXPECT_TRUE(a.dr_shift == b.dr_shift);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.instruction, b.instruction);
    EXPECT_EQ(a.tck_cycles, b.tck_cycles);
  }

  void ExpectCpusAgree() {
    for (const char* name : {"internal", "boundary"}) {
      EXPECT_TRUE(bulk_.chains.FindChain(name)->Capture(bulk_.cpu) ==
                  clocked_.chains.FindChain(name)->Capture(clocked_.cpu))
          << name;
    }
  }

  Board bulk_;
  Board clocked_;
};

TEST_P(TapBulkShiftTest, FullLengthShiftThenUpdateMatchesClocking) {
  Rng rng(0xb01c + static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 3; ++round) {
    Prepare(rng);
    const std::size_t n = RegisterLength();
    ShiftBothWays(RandomBits(rng, n));
    EXPECT_EQ(bulk_.tap->state(), TapState::kExit1Dr);
    for (Board* board : {&bulk_, &clocked_}) {
      board->tap->Clock(true, false);  // Update-DR applies the image
      board->tap->Clock(false, false);
    }
    ExpectTapsAgree();
    ExpectCpusAgree();
  }
}

TEST_P(TapBulkShiftTest, PartialShiftsThroughPauseMatchClocking) {
  // Split a pass into pieces of random length, re-entering Shift-DR
  // through Exit1 -> Pause -> Exit2 between them.
  Rng rng(0x9a57 + static_cast<std::uint64_t>(GetParam()));
  Prepare(rng);
  const std::size_t n = RegisterLength();
  for (int piece = 0; piece < 4; ++piece) {
    const std::size_t k =
        1 + static_cast<std::size_t>(rng.NextBelow(n));
    ShiftBothWays(RandomBits(rng, k));
    for (Board* board : {&bulk_, &clocked_}) {
      board->tap->Clock(false, false);  // Pause-DR
      board->tap->Clock(true, false);   // Exit2-DR
      board->tap->Clock(false, false);  // Shift-DR
    }
  }
  ExpectTapsAgree();
  for (Board* board : {&bulk_, &clocked_}) {
    board->tap->Clock(true, false);  // Exit1-DR
    board->tap->Clock(true, false);  // Update-DR
    board->tap->Clock(false, false);
  }
  ExpectTapsAgree();
  ExpectCpusAgree();
}

TEST_P(TapBulkShiftTest, ReadAndExchangeKeepTckAccounting) {
  // The conveniences are the same FSM walk as before: capture, two
  // full passes and an update for a read; one pass for an exchange.
  Rng rng(0x7c4 + static_cast<std::uint64_t>(GetParam()));
  Prepare(rng);
  const std::size_t n = RegisterLength();
  bulk_.tap->Reset();
  bulk_.tap->LoadInstruction(GetParam());
  std::uint64_t before = bulk_.tap->tck_cycles();
  const BitVector image = bulk_.tap->ReadDataRegister();
  EXPECT_EQ(bulk_.tap->tck_cycles() - before, 2 * n + 8);
  EXPECT_EQ(bulk_.tap->state(), TapState::kRunTestIdle);
  before = bulk_.tap->tck_cycles();
  bulk_.tap->ExchangeDataRegister(image);
  EXPECT_EQ(bulk_.tap->tck_cycles() - before, n + 5);
  EXPECT_EQ(bulk_.tap->state(), TapState::kRunTestIdle);
}

INSTANTIATE_TEST_SUITE_P(
    Registers, TapBulkShiftTest,
    ::testing::Values(TapInstruction::kIdcode, TapInstruction::kBypass,
                      TapInstruction::kScanInternal,
                      TapInstruction::kScanBoundary),
    [](const ::testing::TestParamInfo<TapInstruction>& info) {
      switch (info.param) {
        case TapInstruction::kIdcode: return "Idcode";
        case TapInstruction::kBypass: return "Bypass";
        case TapInstruction::kScanInternal: return "Internal";
        case TapInstruction::kScanBoundary: return "Boundary";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace goofi::sim
