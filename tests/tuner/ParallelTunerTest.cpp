//===- ParallelTunerTest.cpp - Concurrent tuning determinism --------------===//
//
// Part of the liftcpp project.
//
// The parallel tuner must be a pure performance feature: the winning
// candidate, its predicted time, and the set of valid candidates are
// identical for any job count, the evaluation memo never changes
// results, the measured objective's parallel compile-and-simulate phase
// changes neither the modeled times nor the quiet timing of each
// candidate, and a search in which every candidate is pruned reports
// the per-constraint counts instead of failing opaquely.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRunner.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "tuner/Tuner.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

using namespace lift;
using namespace lift::ocl;
using namespace lift::tuner;
using namespace lift::stencil;

namespace {

TuningSpace trimmedSpace() {
  TuningSpace S = liftSpace();
  S.TileOutputs = {8, 16};
  S.CoarsenFactors = {1, 2};
  S.TileCoarsenFactors = {1, 4};
  S.WorkGroupSizes = {64, 128};
  return S;
}

TEST(ParallelTuner, SameWinnerAtJobs128) {
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions O1; // Jobs = 1: legacy sequential path
  TuneResult R1 = tuneStencil(P, Dev, S, O1);

  for (unsigned Jobs : {2u, 8u}) {
    TuneOptions ON;
    ON.Jobs = Jobs;
    TuneResult RN = tuneStencil(P, Dev, S, ON);
    EXPECT_EQ(R1.Best.C.describe(), RN.Best.C.describe()) << "jobs=" << Jobs;
    EXPECT_EQ(R1.Best.T.Total, RN.Best.T.Total) << "jobs=" << Jobs;
    EXPECT_EQ(R1.All.size(), RN.All.size()) << "jobs=" << Jobs;
    // Valid candidates come back in enumeration order with identical
    // predicted times regardless of the thread schedule.
    for (std::size_t I = 0; I != R1.All.size(); ++I) {
      EXPECT_EQ(R1.All[I].C.describe(), RN.All[I].C.describe());
      EXPECT_EQ(R1.All[I].T.Total, RN.All[I].T.Total);
    }
  }
}

TEST(ParallelTuner, MemoDeduplicatesEquivalentLowerings) {
  // Untiled candidates that differ only in work-group size lower to
  // structurally identical programs; the memo must collapse them onto
  // one simulation without changing any result.
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions WithMemo;
  WithMemo.Jobs = 2;
  TuneOptions NoMemo = WithMemo;
  NoMemo.UseMemo = false;

  TuneResult RM = tuneStencil(P, Dev, S, WithMemo);
  TuneResult RN = tuneStencil(P, Dev, S, NoMemo);

  EXPECT_GT(RM.MemoHits, 0u);
  EXPECT_EQ(RN.MemoHits, 0u);
  ASSERT_EQ(RM.All.size(), RN.All.size());
  for (std::size_t I = 0; I != RM.All.size(); ++I)
    EXPECT_EQ(RM.All[I].T.Total, RN.All[I].T.Total)
        << RM.All[I].C.describe();
  EXPECT_EQ(RM.Best.C.describe(), RN.Best.C.describe());
}

bool haveToolchain() {
  try {
    native::probeToolchain();
    return true;
  } catch (const native::NativeError &) {
    return false;
  }
}

/// [start, end) in microseconds of every complete trace event \p Name.
std::vector<std::pair<double, double>> spans(const obs::json::Value &Doc,
                                             const std::string &Name) {
  std::vector<std::pair<double, double>> Out;
  for (const obs::json::Value &E : Doc.find("traceEvents")->array())
    if (E.find("ph")->asString() == "X" && E.find("name")->asString() == Name)
      Out.emplace_back(E.find("ts")->asNumber(),
                       E.find("ts")->asNumber() + E.find("dur")->asNumber());
  return Out;
}

TEST(ParallelTuner, MeasuredSweepModelsLikeModeledAndTimesQuietly) {
  if (!haveToolchain())
    GTEST_SKIP() << "no usable host C compiler; skipping measured sweep";
  const Benchmark &B = findBenchmark("Jacobi2D5pt");
  TuningProblem P = makeProblem(B, /*LargeTarget=*/false);
  TuningSpace S = trimmedSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneOptions MO;
  MO.Jobs = 1;
  MO.UseMemo = false;
  TuneResult Modeled = tuneStencil(P, Dev, S, MO);

  // Jobs == 1 simulates on the sequential engine, Jobs == 2 on the
  // compiled one next to the compiles.
  for (unsigned Jobs : {1u, 2u}) {
    native::KernelCache::global().clear();
    obs::Registry::global().reset();
    obs::FlightRecorder &FR = obs::FlightRecorder::global();
    FR.clear();
    FR.setEnabled(true);
    obs::Tracer &Tr = obs::Tracer::global();
    Tr.clear();
    Tr.enable();
    TuneOptions NO;
    NO.Jobs = Jobs;
    NO.Obj = Objective::Measured;
    NO.MeasureWarmup = 0;
    NO.MeasureRepeats = 1;
    TuneResult Measured = tuneStencil(P, Dev, S, NO);
    Tr.disable();
    FR.setEnabled(false);

    // Sharing one simulation per lowering leaves every modeled time, the
    // candidate order and the prune counts exactly as the legacy sweep.
    ASSERT_EQ(Measured.All.size(), Modeled.All.size());
    for (std::size_t I = 0; I != Modeled.All.size(); ++I) {
      const Evaluated &E = Measured.All[I];
      EXPECT_EQ(E.C.describe(), Modeled.All[I].C.describe());
      EXPECT_EQ(E.T.Total, Modeled.All[I].T.Total)
          << E.C.describe() << " jobs=" << Jobs;
      EXPECT_GT(E.MeasuredSeconds, 0.0) << E.C.describe() << " jobs=" << Jobs;
    }
    EXPECT_EQ(Measured.Prunes.describe(), Modeled.Prunes.describe());

    // One host compile per distinct lowering.
    std::vector<obs::FlightRecorder::TuneLog> Logs = FR.logs();
    ASSERT_EQ(Logs.size(), 1u);
    std::set<std::uint64_t> Lowerings;
    for (const obs::CandidateRecord &R : Logs.front().Records)
      if (R.Valid)
        Lowerings.insert(R.LoweredHash);
    EXPECT_EQ(obs::Registry::global().counterValues(
                  "native.cache.")["native.cache.misses"],
              Lowerings.size());
    FR.clear();

    // No compile runs while a candidate is timed.
    obs::json::Value Doc;
    std::string Err;
    ASSERT_TRUE(obs::json::parse(Tr.exportChromeJson(), Doc, &Err)) << Err;
    Tr.clear();
    auto Compiles = spans(Doc, "native.compile");
    auto Runs = spans(Doc, "native.run");
    EXPECT_EQ(Compiles.size(), Lowerings.size());
    EXPECT_EQ(Runs.size(), Measured.All.size());
    for (const auto &C : Compiles)
      for (const auto &R : Runs)
        EXPECT_TRUE(C.second <= R.first || R.second <= C.first)
            << "native.compile [" << C.first << ", " << C.second
            << ") overlaps native.run [" << R.first << ", " << R.second
            << ")";
  }
}

TEST(ParallelTuner, RemainderTilesAreNotPruned) {
  // SRAD1's 504x458 grid is indivisible by 8/16/32/64 tiles (and its
  // 56x56 measurement grid cannot even hold a full 64-output tile).
  // Since the clamped remainder-tile lowering all those candidates
  // are legal -- short extents clamp the tile per dimension -- so the
  // tuner must evaluate them instead of recording stale
  // tile-indivisible prunes.
  const Benchmark &B = findBenchmark("SRAD1");
  TuningProblem P = makeProblem(B, false);
  TuningSpace S = liftSpace();
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_EQ(R.Prunes.TileIndivisible, 0u);
  EXPECT_EQ(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
  // Tiled candidates survived into the valid set.
  bool SawTiled = false;
  for (const auto &E : R.All)
    SawTiled |= E.C.Options.Tile;
  EXPECT_TRUE(SawTiled);
}

TEST(ParallelTuner, StepTwoRemainderPrunesWithDetail) {
  // A remainder fit at window step != 1 is the one shape that stays
  // genuinely unsupported (the shifted tail tile would leave the
  // output lattice), so the prune survives -- and the recorded reason
  // names why.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = true;
  S.AllowTiling = true;
  S.TileOutputs = {64}; // k = 32 outputs; 458 % 32 != 0 -> unsupported
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();

  TuneResult R = tuneStencil(P, Dev, S);
  EXPECT_GT(R.Prunes.TileIndivisible, 0u);
  EXPECT_NE(R.Prunes.describe().find("tile-indivisible"), std::string::npos);
}

TEST(ParallelTunerDeathTest, AllCandidatesPrunedExplainsWhy) {
  // A space whose only tile size leaves a step-2 remainder: every
  // candidate is rejected and the error must carry the per-constraint
  // breakdown.
  Benchmark B = findBenchmark("SRAD1"); // 504 x 458
  B.WindowStep = 2;
  TuningProblem P = makeProblem(B, false);
  TuningSpace S;
  S.AllowUntiled = false;
  S.AllowTiling = true;
  S.TileOutputs = {64}; // k = 32; 458 % 32 != 0 -> tile-indivisible
  S.TileCoarsenFactors = {1};
  DeviceSpec Dev = deviceNvidiaK20c();
  EXPECT_DEATH(tuneStencil(P, Dev, S), "candidates pruned.*tile-indivisible");
}

} // namespace
