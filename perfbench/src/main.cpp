//===- main.cpp - liftcpp repo benchmark driver ---------------------------===//
//
// Part of the liftcpp repo benchmark (perfbench/).
//
// One process runs one workload once; perfbench/run.py starts it (a
// fresh process with its own empty TMPDIR per run) and assembles the
// metrics. Everything is driven through the library's public entry
// points: tuner::tuneStencil, rewrite::explore / lowerStencil,
// analysis::refuteSplitDivisibility / specializeInterior,
// codegen::compileProgram / runCompiled, native::emitC /
// KernelCache::getOrCompile / runNative and
// stencil::makeBenchmarkInputs. Every output is checked against the
// stencil's independent Benchmark::Golden on the run's seed.
//
// Usage:
//   liftbench run --workload <tune-native|tune-model|run-target>
//                 --seed N --seconds S --result out.json
//                 [--trace --spans spans.json] [--candidates cands.txt]
//   liftbench replay --candidates cands.txt --seed N --result out.json
//                 [--spans spans.json]
//
// `run --candidates` writes every valid candidate of the cold tune
// sweeps; `replay` re-executes them in a fresh process through the same
// public calls the tuner makes (honouring FromMemo), with a span around
// each call, which yields the per-layer costs of a tune.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "BenchSupport.h"
#include "analysis/InteriorSpec.h"
#include "analysis/RangeAnalysis.h"
#include "codegen/CodeGen.h"
#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/CEmitter.h"
#include "native/NativeRunner.h"
#include "native/Peaks.h"
#include "ocl/Device.h"
#include "ocl/Sim.h"
#include "rewrite/Exploration.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"
#include "support/ThreadPool.h"
#include "tuner/Tuner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

using namespace lift;
using namespace perfbench;
using lift::obs::json::Value;
using stencil::Benchmark;
using stencil::Extents;

namespace {

using Grids = std::vector<std::vector<float>>;

const double MaxAbsErr = 1e-3;

//===----------------------------------------------------------------------===//
// Run bookkeeping
//===----------------------------------------------------------------------===//

struct Options {
  std::string Mode; ///< run | replay
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ResultPath, SpansPath, CandidatesPath;
};

/// Everything one process reports; serialized to --result.
struct Report {
  std::uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, double> EndToEnd; ///< BENCHMARK.json end_to_end
  std::map<std::string, double> Named;    ///< the workload's own names
  std::map<std::string, double> Layers;   ///< per_layer (trace runs)
  Value Context = Value::makeObject();

  /// Records one operation's outcome; a failure prints why.
  void op(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "FAILED: %s\n", What.c_str());
    }
  }
};

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0) {
    int N = CPU_COUNT(&Set);
    if (N > 0)
      return unsigned(N);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double msSince(std::uint64_t T0) { return double(nowNs() - T0) * 1e-6; }

/// Runs \p F and returns its wall milliseconds.
double timedMs(const std::function<void()> &F) {
  std::uint64_t T0 = nowNs();
  F();
  return msSince(T0);
}

/// Max |a - b|; infinity on a size mismatch.
double maxErr(const std::vector<float> &Got, const std::vector<float> &Want) {
  if (Got.size() != Want.size())
    return INFINITY;
  double M = 0;
  for (std::size_t I = 0; I != Got.size(); ++I) {
    double D = std::fabs(double(Got[I]) - double(Want[I]));
    if (!(D <= M)) // NaN propagates as a failure
      M = std::isnan(D) ? INFINITY : D;
  }
  return M;
}

/// Bit-pattern hash of a kernel output: later calls of one kernel must
/// reproduce its first output exactly. Four independent lanes keep it
/// near memory speed on the 64 MiB outputs.
std::uint64_t outputHash(const std::vector<float> &V) {
  const unsigned char *P = reinterpret_cast<const unsigned char *>(V.data());
  std::size_t N = V.size() * sizeof(float), I = 0;
  std::uint64_t H[4] = {N, 1, 2, 3};
  for (; I + 32 <= N; I += 32)
    for (int L = 0; L != 4; ++L) {
      std::uint64_t W;
      std::memcpy(&W, P + I + 8 * L, 8);
      H[L] = (H[L] ^ W) * 0x9E3779B97F4A7C15ULL;
    }
  for (; I != N; ++I)
    H[0] = (H[0] ^ P[I]) * 0x9E3779B97F4A7C15ULL;
  return H[0] ^ (H[1] << 1) ^ (H[2] << 2) ^ (H[3] << 3);
}

/// The setup protocol: the set-up body runs at least 3 and at most 9
/// times, until 2 s are spent; the first repetition is timed from
/// process start, later ones from their own start. Returns the median
/// seconds and sets \p Reps. A cheap set-up thus gets more repetitions
/// and a steadier median.
double repeatedSetupS(std::uint64_t ProcessStartNs, std::size_t &Reps,
                      const std::function<void()> &Body) {
  std::vector<double> S;
  std::uint64_t Start = nowNs();
  while (S.size() < 3 || (S.size() < 9 && msSince(Start) < 2000)) {
    std::uint64_t T0 = S.empty() ? ProcessStartNs : nowNs();
    Body();
    S.push_back(msSince(T0) * 1e-3);
  }
  Reps = S.size();
  return median(S);
}

/// The modeled cache the tuner scales by the working-set ratio
/// (mirrors the tuner's own scaling, so the replay simulates exactly
/// the configuration the sweep simulated).
ocl::CacheConfig scaledCache(const ocl::CacheConfig &Base,
                             const Extents &Measure, const Extents &Target) {
  double Scale = 1.0;
  for (std::size_t D = 1; D < Measure.size(); ++D)
    Scale *= double(Measure[D]) / double(Target[D]);
  ocl::CacheConfig C = Base;
  std::int64_t MinBytes = std::int64_t(C.LineBytes) * C.Ways * 4;
  C.TotalBytes = std::max<std::int64_t>(
      MinBytes, std::int64_t(double(C.TotalBytes) * Scale));
  return C;
}

/// Host context each number needs (recorded in every run).
Value hostContext(unsigned NProc) {
  Value C = Value::makeObject();
  C.set("nproc", Value::number(NProc));
  std::string Compiler = "none";
  try {
    Compiler = native::findCompiler();
  } catch (const native::NativeError &) {
  }
  C.set("host_compiler", Value::string(Compiler));
  double LlcMiB = 0;
  if (std::FILE *F =
          std::fopen("/sys/devices/system/cpu/cpu0/cache/index3/size", "r")) {
    char Buf[64] = {};
    if (std::fgets(Buf, sizeof(Buf), F)) {
      double V = std::atof(Buf);
      if (std::strchr(Buf, 'K'))
        V /= 1024.0;
      LlcMiB = V;
    }
    std::fclose(F);
  }
  C.set("llc_mib", Value::number(LlcMiB));
  Value Meta;
  if (obs::json::parse(bench::benchMetaJson(), Meta))
    C.set("build", Meta);
  return C;
}

/// Same-run STREAM-triad and FMA peaks (native/Peaks.h).
void recordPeaks(Report &R) {
  native::MachinePeaks P = native::probeMachinePeaks();
  R.Layers["native.peak_triad_gbs"] = P.GBPerSec;
  R.Layers["native.peak_fma_gflops"] = P.GFlopsPerSec;
  R.Context.set("peak_triad_gbs", Value::number(P.GBPerSec));
  R.Context.set("peak_fma_gflops", Value::number(P.GFlopsPerSec));
}

//===----------------------------------------------------------------------===//
// Candidate dump format (run --candidates / replay)
//===----------------------------------------------------------------------===//
//
//   sweep <benchmark> <large 0|1> <objective measured|modeled> <jobs>
//   cand <tile> <tileOutputs> <local> <tileCoarsen> <unroll> <coarsen> <wg> <memo>

struct SweepDump {
  std::string Bench;
  bool Large = false;
  bool Measured = false;
  unsigned Jobs = 1;
  std::vector<tuner::Evaluated> Cands; ///< C and FromMemo only
};

void writeSweep(std::ofstream &OS, const SweepDump &S) {
  OS << "sweep " << S.Bench << ' ' << S.Large << ' '
     << (S.Measured ? "measured" : "modeled") << ' ' << S.Jobs << '\n';
  for (const tuner::Evaluated &E : S.Cands) {
    const rewrite::LoweringOptions &O = E.C.Options;
    OS << "cand " << O.Tile << ' ' << O.TileOutputs << ' ' << O.UseLocalMem
       << ' ' << O.TileCoarsen << ' ' << O.UnrollReduce << ' ' << O.Coarsen
       << ' ' << E.C.Launch.WorkGroupSize << ' ' << E.FromMemo << '\n';
  }
}

std::vector<SweepDump> readSweeps(const std::string &Path) {
  std::vector<SweepDump> Out;
  std::ifstream IS(Path);
  std::string Line;
  while (std::getline(IS, Line)) {
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "sweep") {
      SweepDump S;
      std::string Obj;
      LS >> S.Bench >> S.Large >> Obj >> S.Jobs;
      S.Measured = Obj == "measured";
      Out.push_back(std::move(S));
    } else if (Tag == "cand" && !Out.empty()) {
      tuner::Evaluated E;
      rewrite::LoweringOptions &O = E.C.Options;
      LS >> O.Tile >> O.TileOutputs >> O.UseLocalMem >> O.TileCoarsen >>
          O.UnrollReduce >> O.Coarsen >> E.C.Launch.WorkGroupSize >>
          E.FromMemo;
      Out.back().Cands.push_back(E);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Tune workloads
//===----------------------------------------------------------------------===//

struct TuneTask {
  const Benchmark *B = nullptr;
  bool Large = false;
  tuner::TuningProblem P;
};

/// The `liftc tune` explore pre-pass: a bounded walk of the rewrite
/// space of the high-level program.
void explorePrePass(const tuner::TuningProblem &P) {
  Span S("rewrite.explore");
  rewrite::ExplorationOptions EO;
  EO.MaxDepth = 2;
  EO.MaxPrograms = 64;
  std::vector<rewrite::Derivation> Ds =
      rewrite::explore(P.Instance.P, rewrite::stencilExplorationRules(), EO);
  if (Ds.empty())
    fatalError("explore returned no derivation");
}

tuner::TuneOptions tuneOptions(bool Measured, unsigned NProc) {
  tuner::TuneOptions TO;
  if (Measured) {
    // `liftc tune --backend native` defaults.
    TO.Obj = tuner::Objective::Measured;
    TO.Jobs = 1;
    TO.MeasureThreads = 1;
    TO.MeasureWarmup = 1;
    TO.MeasureRepeats = 3;
  } else {
    TO.Obj = tuner::Objective::Modeled;
    TO.Jobs = NProc;
  }
  return TO;
}

/// Validates one tune winner. Measured sweeps: lowered, compiled and run
/// natively at the target grid (1 thread, as the tuner measures) \p Calls
/// times; the first output is checked against golden, and the median ms
/// of the later calls is returned (0 with one call). Modeled sweeps:
/// simulated at the measurement grid (no host compiler). Returns a
/// negative value on a failure.
double validateWinner(const TuneTask &T, const tuner::Candidate &C,
                      bool Measured, const Grids &TargetInputs,
                      const std::vector<float> &TargetGolden,
                      unsigned NProc, int Calls) {
  const tuner::TuningProblem &P = T.P;
  const Extents &Grid = Measured ? P.Target : P.Measure;
  rewrite::LoweringOptions LO = C.Options;
  LO.OutputExtents.assign(Grid.begin(), Grid.end());
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(P.Instance.P, LO, &WhyNot);
  if (!Low) {
    std::fprintf(stderr, "%s %s: lowering failed: %s\n", T.B->Name.c_str(),
                 C.describe().c_str(), WhyNot.c_str());
    return -1;
  }
  codegen::Compiled CC = codegen::compileProgram(Low, T.B->Name);
  ocl::SizeEnv Env = stencil::makeSizeEnv(P.Instance, Grid);
  if (!Measured) {
    codegen::RunResult R =
        codegen::runCompiled(CC, P.Inputs, Env, ocl::CacheConfig(), NProc);
    double Err = maxErr(R.Output, T.B->Golden(P.Inputs, Grid));
    if (Err > MaxAbsErr) {
      std::fprintf(stderr, "%s %s: simulated winner off golden by %g\n",
                   T.B->Name.c_str(), C.describe().c_str(), Err);
      return -1;
    }
    return 0;
  }
  try {
    native::NativeKernelPtr K = native::KernelCache::global().getOrCompile(
        ir::structuralHash(Low), CC.K);
    std::vector<double> Ms;
    std::uint64_t Hash = 0;
    for (int I = 0; I != Calls; ++I) {
      native::NativeRunResult R =
          native::runNative(CC, *K, TargetInputs, Env, 1, 0, 1);
      if (I == 0) {
        double Err = maxErr(R.Output, TargetGolden);
        if (Err > MaxAbsErr) {
          std::fprintf(stderr, "%s %s: native winner off golden by %g\n",
                       T.B->Name.c_str(), C.describe().c_str(), Err);
          return -1;
        }
        Hash = outputHash(R.Output);
        continue; // the first call is the warmup
      }
      if (outputHash(R.Output) != Hash) {
        std::fprintf(stderr, "%s %s: output changed between calls\n",
                     T.B->Name.c_str(), C.describe().c_str());
        return -1;
      }
      Ms.push_back(R.Seconds * 1e3);
    }
    return median(Ms);
  } catch (const native::NativeError &Ex) {
    std::fprintf(stderr, "%s %s: native backend failed: %s\n",
                 T.B->Name.c_str(), C.describe().c_str(), Ex.what());
    return -1;
  }
}

int runTune(const Options &O, Report &Rep, std::uint64_t ProcessStartNs) {
  const bool Measured = O.Workload == "tune-native";
  const unsigned NProc = nproc();
  const ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  const tuner::TuneOptions TO = tuneOptions(Measured, NProc);

  // Set-up: toolchain probe (native only), benchmark instances, seeded
  // measurement inputs.
  std::vector<TuneTask> Tasks;
  std::size_t SetupReps = 0;
  double SetupS = repeatedSetupS(ProcessStartNs, SetupReps, [&] {
    if (Measured)
      native::probeToolchain();
    Tasks.clear();
    auto Add = [&](const Benchmark &B, bool Large) {
      TuneTask T;
      T.B = &B;
      T.Large = Large;
      T.P = tuner::makeProblem(B, Large);
      Span S("stencil.inputs");
      T.P.Inputs = stencil::makeBenchmarkInputs(B, T.P.Measure, O.Seed);
      Tasks.push_back(std::move(T));
    };
    if (Measured) {
      for (const char *Name : {"Jacobi2D5pt", "Jacobi3D7pt"})
        Add(stencil::findBenchmark(Name), false);
    } else {
      for (const Benchmark &B : stencil::allBenchmarks()) {
        Add(B, false);
        if (!B.LargeExtents.empty())
          Add(B, true);
      }
    }
  });
  Rep.Layers["stencil.inputs_ms"] =
      SpanLog::global().totalMs("stencil.inputs") / double(SetupReps);

  std::vector<tuner::TuneResult> Cold(Tasks.size());
  std::vector<std::vector<tuner::Candidate>> Winners(Tasks.size());
  auto Sweep = [&](std::size_t I, tuner::TuneResult *Keep) {
    Span S("bench.sweep", I);
    explorePrePass(Tasks[I].P);
    tuner::TuneResult R =
        tuner::tuneStencil(Tasks[I].P, Dev, tuner::liftSpace(), TO);
    Winners[I].push_back(R.Best.C);
    Rep.op(R.Best.Valid, Tasks[I].B->Name + ": tune found no winner");
    if (Keep)
      *Keep = std::move(R);
  };

  // Cold sweeps (process-fresh caches), then warm re-sweeps of the whole
  // set for the measuring time (at least three passes). The warm figure
  // sums each sweep's median, so a burst of host noise during one pass
  // does not move it.
  std::vector<double> ColdMs(Tasks.size());
  for (std::size_t I = 0; I != Tasks.size(); ++I)
    ColdMs[I] = timedMs([&] { Sweep(I, &Cold[I]); });
  double ColdS = 0;
  for (double Ms : ColdMs)
    ColdS += Ms * 1e-3;
  std::vector<std::vector<double>> WarmMs(Tasks.size());
  std::uint64_t WarmStart = nowNs();
  std::size_t Passes = 0;
  do {
    for (std::size_t I = 0; I != Tasks.size(); ++I)
      WarmMs[I].push_back(timedMs([&] { Sweep(I, nullptr); }));
    // Peak memory after a fixed amount of work (the cold sweeps and two
    // warm passes), so it does not depend on how many passes fit.
    if (++Passes == 2)
      Rep.EndToEnd["peak_rss_mb"] = peakRssMb();
  } while (Passes < 3 || msSince(WarmStart) < O.Seconds * 1e3);
  double WarmS = 0;
  for (const std::vector<double> &Ms : WarmMs)
    WarmS += median(Ms) * 1e-3;

  Rep.EndToEnd["setup_s"] = SetupS;
  Rep.EndToEnd["cold_s"] = ColdS;
  Rep.Layers["tuner.retune_ms"] = WarmS * 1e3;
  Rep.Named["tune_s"] = ColdS;
  Rep.Named["retune_s"] = WarmS;
  Rep.Named["warm_passes"] = double(Passes);

  // Tuner-side counts of the cold sweeps.
  double Valid = 0, Pruned = 0, Memo = 0;
  for (const tuner::TuneResult &R : Cold) {
    Valid += double(R.All.size());
    Pruned += double(R.Prunes.total());
    Memo += double(R.MemoHits);
  }
  Rep.Layers["tuner.candidates"] = Valid + Pruned;
  Rep.Layers["tuner.valid"] = Valid;
  Rep.Layers["tuner.pruned"] = Pruned;
  Rep.Layers["ocl.memo_hit_ratio"] = Valid > 0 ? Memo / Valid : 0;
  Rep.Layers["tuner.cold_ms"] = ColdS * 1e3;
  for (std::size_t I = 0; I != Tasks.size(); ++I) {
    std::string Key =
        Tasks[I].B->Name + (Tasks[I].Large ? ".large" : ".small");
    Rep.Context.set("tune_ms." + Key, Value::number(ColdMs[I]));
    std::vector<Value> Warm;
    for (double Ms : WarmMs[I])
      Warm.push_back(Value::number(Ms));
    Rep.Context.set("retune_ms." + Key, Value::makeArray(std::move(Warm)));
  }

  // The candidate dump for the replay process.
  if (!O.CandidatesPath.empty()) {
    std::ofstream OS(O.CandidatesPath);
    for (std::size_t I = 0; I != Tasks.size(); ++I) {
      SweepDump S;
      S.Bench = Tasks[I].B->Name;
      S.Large = Tasks[I].Large;
      S.Measured = Measured;
      S.Jobs = TO.Jobs;
      S.Cands = Cold[I].All;
      writeSweep(OS, S);
    }
  }

  // Validation (not timed): every sweep's winner against golden. The
  // modeled objective is deterministic, so every pass must also pick
  // the cold pass's winner.
  std::uint64_t CheckStart = nowNs();
  std::vector<Grids> TargetInputs(Tasks.size());
  std::vector<std::vector<float>> TargetGolden(Tasks.size());
  if (Measured) {
    std::vector<std::future<void>> Done;
    for (std::size_t I = 0; I != Tasks.size(); ++I)
      Done.push_back(std::async(std::launch::async, [&, I] {
        const TuneTask &T = Tasks[I];
        TargetInputs[I] =
            stencil::makeBenchmarkInputs(*T.B, T.P.Target, O.Seed);
        TargetGolden[I] = T.B->Golden(TargetInputs[I], T.P.Target);
      }));
    for (std::future<void> &F : Done)
      F.get();
  }
  for (std::size_t I = 0; I != Tasks.size(); ++I) {
    const TuneTask &T = Tasks[I];
    std::map<std::string, double> Checked; // winner -> result
    for (std::size_t W = 0; W != Winners[I].size(); ++W) {
      const tuner::Candidate &C = Winners[I][W];
      std::string Key = C.describe();
      if (!Checked.count(Key))
        Checked[Key] = validateWinner(T, C, Measured, TargetInputs[I],
                                      TargetGolden[I], NProc,
                                      W == 0 ? 6 : 1);
      bool Ok = Checked[Key] >= 0;
      if (!Measured && Key != Winners[I].front().describe()) {
        std::fprintf(stderr, "%s: modeled winner changed (%s vs %s)\n",
                     T.B->Name.c_str(), Key.c_str(),
                     Winners[I].front().describe().c_str());
        Ok = false;
      }
      Rep.op(Ok, T.B->Name + " winner " + Key);
    }
    if (Measured)
      Rep.Layers["tuner.winner_target_ms." + T.B->Name] =
          Checked[Winners[I].front().describe()];
    Rep.Context.set("winner." + T.B->Name +
                        (T.Large ? ".large" : ".small"),
                    Value::string(Winners[I].front().describe()));
  }
  Rep.Layers["check.golden_ms"] = msSince(CheckStart);
  Rep.Context.set("jobs", Value::number(TO.Jobs));
  Rep.Context.set("measure_threads",
                  Value::number(Measured ? TO.MeasureThreads : 0));
  return 0;
}

//===----------------------------------------------------------------------===//
// Replay: the tuner's per-candidate call sequence, span by span
//===----------------------------------------------------------------------===//

std::atomic<std::uint64_t> ReplayEmitBytes{0};

/// Replays one valid candidate the way tuneStencil evaluates it:
/// lower at the measurement grid, refute split divisibility at both
/// grids, simulate unless the sweep served it from its memo, apply the
/// device model, and under the measured objective compile and run it
/// natively.
void replayCandidate(const tuner::TuningProblem &P, const ocl::DeviceSpec &Dev,
                     const tuner::Evaluated &E, const tuner::TuneOptions &TO,
                     std::uint64_t Op) {
  Span Cand("bench.candidate", Op);
  const Benchmark &B = *P.B;
  rewrite::LoweringOptions LO = E.C.Options;
  LO.OutputExtents.assign(P.Measure.begin(), P.Measure.end());
  ir::Program Low;
  {
    Span S("rewrite.lower", Op);
    Low = rewrite::lowerStencil(P.Instance.P, LO);
  }
  if (!Low)
    fatalError("replay: a valid candidate failed to lower: " +
               E.C.describe());
  std::size_t LowHash = ir::structuralHash(Low);
  ocl::SizeEnv MeasureEnv = stencil::makeSizeEnv(P.Instance, P.Measure);
  ocl::SizeEnv TargetEnv = stencil::makeSizeEnv(P.Instance, P.Target);
  {
    Span S("analysis.refute", Op);
    if (analysis::refuteSplitDivisibility(Low, MeasureEnv) ||
        analysis::refuteSplitDivisibility(Low, TargetEnv))
      fatalError("replay: a valid candidate was refuted: " + E.C.describe());
  }
  if (!E.FromMemo) {
    codegen::Compiled C;
    {
      Span S("codegen.compile", Op);
      C = codegen::compileProgram(Low, B.Name);
    }
    codegen::RunResult Run;
    {
      Span S("ocl.sim", Op);
      Run = codegen::runCompiled(C, P.Inputs, MeasureEnv,
                                 scaledCache(Dev.Cache, P.Measure, P.Target),
                                 TO.Jobs);
    }
    {
      Span S("ocl.model", Op);
      ocl::NDRangeInfo ND = ocl::analyzeNDRange(C.K, TargetEnv);
      (void)ocl::estimateTime(Dev, Run.Counters, ND, E.C.Launch);
    }
  }
  if (TO.Obj != tuner::Objective::Measured)
    return;
  codegen::Compiled NatC;
  {
    Span S("codegen.compile", Op);
    NatC = codegen::compileProgram(Low, B.Name);
  }
  {
    // getOrCompile emits the source itself; this span measures the
    // emitter on its own (and the bytes it produces).
    Span S("native.emit", Op);
    ReplayEmitBytes += native::emitC(NatC.K).size();
  }
  native::NativeKernelPtr K;
  {
    Span S("native.cc", Op);
    K = native::KernelCache::global().getOrCompile(LowHash, NatC.K);
  }
  Span S("native.run", Op);
  native::runNative(NatC, *K, P.Inputs, MeasureEnv, TO.MeasureThreads,
                    TO.MeasureWarmup, TO.MeasureRepeats);
}

int runReplay(const Options &O, Report &Rep) {
  const unsigned NProc = nproc();
  const ocl::DeviceSpec Dev = ocl::deviceNvidiaK20c();
  std::vector<SweepDump> Sweeps = readSweeps(O.CandidatesPath);
  if (Sweeps.empty()) {
    std::fprintf(stderr, "replay: no sweeps in %s\n", O.CandidatesPath.c_str());
    return 1;
  }
  if (Sweeps.front().Measured)
    native::probeToolchain();
  // Problems are built before the spans start, as in the timed run.
  std::vector<tuner::TuningProblem> Problems;
  for (const SweepDump &S : Sweeps) {
    const Benchmark &B = stencil::findBenchmark(S.Bench);
    Problems.push_back(tuner::makeProblem(B, S.Large));
    Problems.back().Inputs =
        stencil::makeBenchmarkInputs(B, Problems.back().Measure, O.Seed);
  }
  auto SweepOptions = [&](const SweepDump &S) {
    tuner::TuneOptions TO = tuneOptions(S.Measured, NProc);
    TO.Jobs = S.Jobs;
    return TO;
  };
  // One sweep's replay: the explore pre-pass, then every candidate with
  // the sweep's job count. Returns the wall ms its layer spans cover.
  std::uint64_t Op = 0;
  auto ReplaySweep = [&](std::size_t SI) {
    const SweepDump &S = Sweeps[SI];
    const tuner::TuningProblem &P = Problems[SI];
    tuner::TuneOptions TO = SweepOptions(S);
    std::uint64_t T0 = nowNs();
    {
      Span Sw("bench.sweep", SI);
      explorePrePass(P);
      std::uint64_t Base = Op;
      auto One = [&](std::size_t I) {
        replayCandidate(P, Dev, S.Cands[I], TO, Base + I);
      };
      if (TO.Jobs <= 1)
        for (std::size_t I = 0; I != S.Cands.size(); ++I)
          One(I);
      else
        ThreadPool::shared().parallelFor(S.Cands.size(), One, TO.Jobs);
      Op += S.Cands.size();
    }
    return SpanLog::global().layerUnionMs(T0, nowNs());
  };

  // Cold replay: the per-layer costs of the timed run's cold sweeps,
  // starting from an empty kernel cache as that run did.
  SpanLog::global().setEnabled(true);
  double ReplayMs = 0;
  for (std::size_t SI = 0; SI != Sweeps.size(); ++SI)
    ReplayMs += ReplaySweep(SI);
  const SpanLog &L = SpanLog::global();
  auto Ms = [&L](const char *N) { return L.totalMs(N); };
  auto Cnt = [&L](const char *N) { return double(L.count(N)); };
  Rep.Layers["rewrite.explore_ms"] = Ms("rewrite.explore");
  Rep.Layers["rewrite.lower_ms"] = Ms("rewrite.lower");
  Rep.Layers["rewrite.lower_calls"] = Cnt("rewrite.lower");
  Rep.Layers["analysis.refute_ms"] = Ms("analysis.refute");
  Rep.Layers["codegen.compile_ms"] = Ms("codegen.compile");
  Rep.Layers["codegen.calls"] = Cnt("codegen.compile");
  Rep.Layers["ocl.sim_ms"] = Ms("ocl.sim");
  Rep.Layers["ocl.sim_calls"] = Cnt("ocl.sim");
  Rep.Layers["ocl.model_ms"] = Ms("ocl.model");
  Rep.Layers["native.emit_ms"] = Ms("native.emit");
  Rep.Layers["native.emit_bytes"] = double(ReplayEmitBytes.load());
  Rep.Layers["native.cc_ms"] = Ms("native.cc");
  Rep.Layers["native.cc_calls"] = Cnt("native.cc");
  Rep.Layers["native.run_ms"] = Ms("native.run");
  Rep.Layers["native.cache_hits"] = double(native::KernelCache::global().hits());
  Rep.Layers["native.cache_misses"] =
      double(native::KernelCache::global().misses());
  Rep.Layers["tuner.replay_ms"] = ReplayMs;

  // Coverage: in two rounds, each sweep is tuned for real and replayed
  // next to it, in this process (tune first, then replay first), so host
  // noise between processes does not enter the ratio. The native cache
  // is warm here for both.
  double TuneMs = 0, ReplayedMs = 0;
  for (int Round = 0; Round != 2; ++Round)
    for (std::size_t SI = 0; SI != Sweeps.size(); ++SI) {
      const tuner::TuningProblem &P = Problems[SI];
      auto Tune = [&] {
        TuneMs += timedMs([&] {
          Span Sw("bench.tune", SI);
          explorePrePass(P);
          tuner::tuneStencil(P, Dev, tuner::liftSpace(),
                             SweepOptions(Sweeps[SI]));
        });
      };
      if (Round == 0)
        Tune();
      ReplayedMs += ReplaySweep(SI);
      if (Round == 1)
        Tune();
    }
  SpanLog::global().setEnabled(false);
  Rep.Layers["tuner.replay_share"] = ReplayedMs / TuneMs;
  Rep.Layers["tuner.self_ms"] = (TuneMs - ReplayedMs) / 2;
  return 0;
}

//===----------------------------------------------------------------------===//
// run-target: generated kernels at the paper's grids
//===----------------------------------------------------------------------===//

struct TargetStencil {
  const Benchmark *B = nullptr;
  stencil::BenchmarkInstance Inst;
  Extents Grid;
  Grids Inputs;
  std::vector<float> Golden;
};

struct TargetKernel {
  std::size_t Stencil = 0;
  std::string Variant; ///< global | global-spec | tiled16-local
  codegen::Compiled C;
  native::NativeKernelPtr K; ///< held until exit: never unloaded mid-run
  ocl::SizeEnv Env;
  bool Ok = false;
};

/// One (kernel, thread count) pair of the measurement rotation.
struct Config {
  std::size_t Kernel = 0;
  unsigned Threads = 1;
  std::string Label; ///< <stencil>.<variant>.<1t|mt>
  std::uint64_t Hash = 0; ///< of the first output
  std::vector<double> Ms; ///< one sample per call
};

int runTarget(const Options &O, Report &Rep, std::uint64_t ProcessStartNs) {
  const unsigned NProc = nproc();
  const char *Names[] = {"Jacobi2D5pt", "Gaussian",  "Hotspot2D",
                         "Jacobi3D7pt", "Heat",      "Hotspot3D"};
  const char *Variants[] = {"global", "global-spec", "tiled16-local"};

  // Set-up: toolchain probe, instances, seeded inputs at Table-1 grids.
  std::vector<TargetStencil> Sts;
  std::size_t SetupReps = 0;
  double SetupS = repeatedSetupS(ProcessStartNs, SetupReps, [&] {
    native::probeToolchain();
    Sts.clear();
    for (const char *N : Names) {
      TargetStencil S;
      S.B = &stencil::findBenchmark(N);
      S.Inst = S.B->Build();
      // Table-1 grids, except Hotspot2D at 4096^2 instead of 8192^2:
      // its single-threaded golden reference alone took ~10 s there
      // and its buffers ~40% of a measurement round, while 4096^2
      // (three 64 MiB arrays) still exceeds the last-level cache.
      S.Grid = S.B->Name == "Hotspot2D" ? Extents{4096, 4096}
                                        : S.B->SmallExtents;
      Span Sp("stencil.inputs");
      S.Inputs = stencil::makeBenchmarkInputs(*S.B, S.Grid, O.Seed);
      Sts.push_back(std::move(S));
    }
  });
  Rep.EndToEnd["setup_s"] = SetupS;
  Rep.Layers["stencil.inputs_ms"] =
      SpanLog::global().totalMs("stencil.inputs") / double(SetupReps);

  // Cold compile: spec -> loaded kernel, per kernel.
  std::vector<TargetKernel> Ks;
  double EmitBytes = 0, LoopsSplit = 0;
  std::uint64_t CompileStart = nowNs();
  for (std::size_t SI = 0; SI != Sts.size(); ++SI)
    for (const char *V : Variants) {
      TargetStencil &S = Sts[SI];
      TargetKernel TK;
      TK.Stencil = SI;
      TK.Variant = V;
      std::uint64_t Op = Ks.size();
      Span Whole("bench.compile", Op);
      rewrite::LoweringOptions LO;
      if (TK.Variant == "tiled16-local") {
        LO.Tile = true;
        LO.TileOutputs = 16;
        LO.UseLocalMem = true;
      }
      LO.OutputExtents.assign(S.Grid.begin(), S.Grid.end());
      ir::Program Low;
      {
        Span Sp("rewrite.lower", Op);
        Low = rewrite::lowerStencil(S.Inst.P, LO);
      }
      if (!Low) {
        Rep.op(false, S.B->Name + " " + V + ": lowering refused");
        Ks.push_back(std::move(TK));
        continue;
      }
      {
        Span Sp("codegen.compile", Op);
        TK.C = codegen::compileProgram(Low, S.B->Name);
      }
      std::uint64_t Key = ir::structuralHash(Low);
      if (TK.Variant == "global-spec") {
        Span Sp("analysis.specialize", Op);
        analysis::SpecStats SS;
        TK.C.K = analysis::specializeInterior(TK.C.K, &SS);
        LoopsSplit += SS.LoopsSplit;
        Key ^= 0xA5A5A5A5A5A5A5A5ULL; // distinct cache identity
      }
      {
        Span Sp("native.emit", Op);
        EmitBytes += double(native::emitC(TK.C.K).size());
      }
      try {
        Span Sp("native.cc", Op);
        TK.K = native::KernelCache::global().getOrCompile(Key, TK.C.K);
        TK.Ok = true;
      } catch (const native::NativeError &Ex) {
        std::fprintf(stderr, "%s %s: %s\n", S.B->Name.c_str(), V, Ex.what());
      }
      TK.Env = stencil::makeSizeEnv(S.Inst, S.Grid);
      Rep.op(TK.Ok, S.B->Name + " " + V + ": compile");
      Ks.push_back(std::move(TK));
    }
  double CompileS = msSince(CompileStart) * 1e-3;

  // The rotation: every kernel at 1 thread and at nproc threads.
  std::vector<Config> Cfgs;
  for (std::size_t KI = 0; KI != Ks.size(); ++KI)
    for (unsigned T : {1u, NProc}) {
      Config C;
      C.Kernel = KI;
      C.Threads = T;
      C.Label = Sts[Ks[KI].Stencil].B->Name + "." + Ks[KI].Variant +
                (T == 1 ? ".1t" : ".mt");
      Cfgs.push_back(std::move(C));
    }
  auto Call = [&](Config &C, double *WallMs) -> native::NativeRunResult {
    TargetKernel &TK = Ks[C.Kernel];
    Span Sp("native.run", C.Kernel);
    std::uint64_t T0 = nowNs();
    native::NativeRunResult R = native::runNative(
        TK.C, *TK.K, Sts[TK.Stencil].Inputs, TK.Env, C.Threads, 0, 1);
    if (WallMs)
      *WallMs = msSince(T0);
    return R;
  };

  // Measurement: round-robin over the configs, one sample per call, the
  // start of the rotation shifted each round, for the measuring time (at
  // least three rounds). A config's first output is its reference:
  // every later call must reproduce it bit for bit, and the reference
  // is checked against golden after the measurement. Traced runs
  // alternate traced and untraced rounds to measure the spans' own cost.
  std::uint64_t MeasureStart = nowNs();
  std::vector<double> TracedWall, UntracedWall;
  double RunMs = 0, OverheadMs = 0;
  std::size_t Round = 0;
  for (; Round < 3 || msSince(MeasureStart) < O.Seconds * 1e3; ++Round) {
    bool Traced = O.Trace && Round % 2 == 0;
    SpanLog::global().setEnabled(Traced);
    std::uint64_t R0 = nowNs();
    for (std::size_t J = 0; J != Cfgs.size(); ++J) {
      Config &C = Cfgs[(J + Round) % Cfgs.size()];
      if (!Ks[C.Kernel].Ok)
        continue;
      double Wall = 0;
      bool Ok = false;
      try {
        native::NativeRunResult R = Call(C, &Wall);
        std::uint64_t H = outputHash(R.Output);
        if (C.Ms.empty())
          C.Hash = H;
        Ok = H == C.Hash;
        C.Ms.push_back(R.Seconds * 1e3);
        if (Traced) {
          RunMs += Wall;
          OverheadMs += Wall - R.Seconds * 1e3;
        }
      } catch (const native::NativeError &Ex) {
        std::fprintf(stderr, "%s: %s\n", C.Label.c_str(), Ex.what());
      }
      Rep.op(Ok, C.Label + ": output differs from its first run");
    }
    (Traced ? TracedWall : UntracedWall).push_back(msSince(R0));
  }
  SpanLog::global().setEnabled(O.Trace);
  // The system's own peak: inputs, loaded kernels and runNative's
  // buffers, before any golden reference exists.
  Rep.EndToEnd["peak_rss_mb"] = peakRssMb();

  // Golden check: references are computed on helper threads; as each
  // becomes ready, one more call per config of that stencil is compared
  // against golden and against the config's reference output.
  std::uint64_t GoldenStart = nowNs();
  std::vector<std::future<void>> GoldenDone;
  for (TargetStencil &S : Sts)
    GoldenDone.push_back(std::async(std::launch::async, [&S] {
      Span Sp("check.golden");
      S.Golden = S.B->Golden(S.Inputs, S.Grid);
    }));
  auto Check = [&](Config &C) {
    bool Ok = false;
    try {
      native::NativeRunResult R = Call(C, nullptr);
      double Err = maxErr(R.Output, Sts[Ks[C.Kernel].Stencil].Golden);
      Ok = Err <= MaxAbsErr && outputHash(R.Output) == C.Hash;
      if (!Ok)
        std::fprintf(stderr, "%s: off golden by %g\n", C.Label.c_str(), Err);
    } catch (const native::NativeError &Ex) {
      std::fprintf(stderr, "%s: %s\n", C.Label.c_str(), Ex.what());
    }
    Rep.op(Ok, C.Label + ": output vs golden");
  };
  std::vector<bool> Checked(Sts.size(), false);
  for (std::size_t Left = Sts.size(); Left != 0;)
    for (std::size_t SI = 0; SI != Sts.size(); ++SI) {
      if (Checked[SI] || GoldenDone[SI].wait_for(std::chrono::milliseconds(
                             20)) != std::future_status::ready)
        continue;
      Checked[SI] = true;
      --Left;
      for (Config &C : Cfgs)
        if (Ks[C.Kernel].Stencil == SI && Ks[C.Kernel].Ok)
          Check(C);
    }
  for (std::future<void> &F : GoldenDone)
    try {
      F.get();
    } catch (const std::exception &Ex) {
      std::fprintf(stderr, "golden reference failed: %s\n", Ex.what());
    }
  double GoldenMs = msSince(GoldenStart);
  Rep.Context.set("phase_s.measure",
                  Value::number(double(GoldenStart - MeasureStart) * 1e-9));
  Rep.Context.set("phase_s.check", Value::number(GoldenMs * 1e-3));

  // Metrics. The round time sums each config's median, so a burst of
  // host noise during one round does not move it.
  std::vector<double> G1, GM;
  double RoundS = 0;
  std::printf("%-36s %10s %10s %10s %14s %4s %9s\n", "kernel", "median ms",
              "p25 ms", "p75 ms", "tail ms", "n", "GElem/s");
  for (Config &C : Cfgs) {
    if (C.Ms.empty())
      continue;
    const TargetStencil &S = Sts[Ks[C.Kernel].Stencil];
    double Med = median(C.Ms);
    RoundS += Med * 1e-3;
    double Points = double(stencil::totalElems(S.Grid));
    double GE = Points / (Med * 1e-3) / 1e9;
    (C.Threads == 1 ? G1 : GM).push_back(GE);
    std::printf("%-36s %10.3f %10.3f %10.3f %14s %4zu %9.3f\n",
                C.Label.c_str(), Med, quantile(C.Ms, 0.25),
                quantile(C.Ms, 0.75), tailPercentile(C.Ms).c_str(),
                C.Ms.size(), GE);
    Rep.Layers["native.kernel_ms." + C.Label] = Med;
    if (C.Threads != 1) {
      // Computed compulsory traffic: every input grid read once, the
      // output written once.
      double Bytes = 4.0 * Points * double(S.B->NumGrids + 1);
      std::string Name = S.B->Name + "." + Ks[C.Kernel].Variant;
      Rep.Layers["native.kernel_gbs." + Name + ".mt"] =
          Bytes / (Med * 1e-3) / 1e9;
    }
  }
  const SpanLog &L = SpanLog::global();
  Rep.EndToEnd["cold_s"] = CompileS;
  Rep.Layers["native.round_ms"] = RoundS * 1e3;
  Rep.Named["compile_s"] = CompileS;
  Rep.Named["round_s"] = RoundS;
  Rep.Named["rounds"] = double(Round);
  Rep.Named["kernel_gelems_s_1t"] = geomean(G1);
  Rep.Named["kernel_gelems_s_mt"] = geomean(GM);
  Rep.Layers["native.kernel_gelems_s.1t"] = geomean(G1);
  Rep.Layers["native.kernel_gelems_s.mt"] = geomean(GM);
  Rep.Layers["rewrite.lower_ms"] = L.totalMs("rewrite.lower");
  Rep.Layers["rewrite.lower_calls"] = double(L.count("rewrite.lower"));
  Rep.Layers["analysis.specialize_ms"] = L.totalMs("analysis.specialize");
  Rep.Layers["analysis.loops_split"] = LoopsSplit;
  Rep.Layers["codegen.compile_ms"] = L.totalMs("codegen.compile");
  Rep.Layers["codegen.calls"] = double(L.count("codegen.compile"));
  Rep.Layers["native.emit_ms"] = L.totalMs("native.emit");
  Rep.Layers["native.emit_bytes"] = EmitBytes;
  Rep.Layers["native.cc_ms"] = L.totalMs("native.cc");
  Rep.Layers["native.cc_calls"] = double(L.count("native.cc"));
  Rep.Layers["native.cache_hits"] = double(native::KernelCache::global().hits());
  Rep.Layers["native.cache_misses"] =
      double(native::KernelCache::global().misses());
  Rep.Layers["native.run_ms"] = RunMs;
  Rep.Layers["native.run_overhead_ms"] = OverheadMs;
  Rep.Layers["check.golden_ms"] = GoldenMs;
  if (O.Trace && !TracedWall.empty() && !UntracedWall.empty())
    Rep.Layers["bench.trace_overhead_ms"] =
        median(TracedWall) - median(UntracedWall);

  Value Grid = Value::makeObject();
  for (const TargetStencil &S : Sts)
    Grid.set(S.B->Name,
             Value::string(bench::extentsToString(S.Grid) + " (" +
                           std::to_string(stencil::totalElems(S.Grid) * 4 >>
                                          20) +
                           " MiB per array)"));
  Rep.Context.set("grids", Grid);
  Rep.Context.set("threads_mt", Value::number(NProc));
  return 0;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Options &O) {
  if (Argc < 2)
    return false;
  O.Mode = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--trace") {
      O.Trace = true;
    } else if (A == "--workload") {
      if (!Next(O.Workload))
        return false;
    } else if (A == "--seed") {
      if (!Next(V))
        return false;
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      if (!Next(V))
        return false;
      O.Seconds = std::atof(V.c_str());
    } else if (A == "--result") {
      if (!Next(O.ResultPath))
        return false;
    } else if (A == "--spans") {
      if (!Next(O.SpansPath))
        return false;
    } else if (A == "--candidates") {
      if (!Next(O.CandidatesPath))
        return false;
    } else {
      std::fprintf(stderr, "liftbench: unknown option %s\n", A.c_str());
      return false;
    }
  }
  return !O.ResultPath.empty() &&
         (O.Mode == "replay" ? !O.CandidatesPath.empty()
                             : O.Mode == "run" && !O.Workload.empty());
}

Value numberMap(const std::map<std::string, double> &M) {
  Value V = Value::makeObject();
  for (const auto &[K, X] : M)
    V.set(K, Value::number(X));
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  std::uint64_t ProcessStartNs = nowNs();
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: liftbench run --workload W --seed N --seconds S "
                 "--result F [--trace --spans F] [--candidates F]\n"
                 "       liftbench replay --candidates F --seed N --result F "
                 "[--spans F]\n");
    return 2;
  }
  SpanLog::global().setEnabled(O.Trace);
  Report Rep;
  Rep.Context = hostContext(nproc());
  int RC;
  if (O.Mode == "replay")
    RC = runReplay(O, Rep);
  else if (O.Workload == "run-target")
    RC = runTarget(O, Rep, ProcessStartNs);
  else if (O.Workload == "tune-native" || O.Workload == "tune-model")
    RC = runTune(O, Rep, ProcessStartNs);
  else {
    std::fprintf(stderr, "liftbench: unknown workload %s\n",
                 O.Workload.c_str());
    return 2;
  }
  if (RC != 0)
    return RC;
  if (O.Mode == "run") {
    std::uint64_t PeaksStart = nowNs();
    recordPeaks(Rep);
    Rep.Context.set("phase_s.peaks",
                    Value::number(msSince(PeaksStart) * 1e-3));
  }
  Rep.Context.set("phase_s.total",
                  Value::number(msSince(ProcessStartNs) * 1e-3));

  Value Out = Value::makeObject();
  Out.set("attempted", Value::number(double(Rep.Attempted)));
  Out.set("failed", Value::number(double(Rep.Failed)));
  Out.set("end_to_end", numberMap(Rep.EndToEnd));
  Out.set("named", numberMap(Rep.Named));
  Out.set("layers", numberMap(Rep.Layers));
  Out.set("context", Rep.Context);
  std::ofstream OS(O.ResultPath);
  OS << Out.serialize() << '\n';
  if (!O.SpansPath.empty() && !SpanLog::global().writeJson(O.SpansPath))
    std::fprintf(stderr, "liftbench: cannot write %s\n", O.SpansPath.c_str());
  return OS ? 0 : 1;
}
