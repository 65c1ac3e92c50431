//===- NativeRunnerTest.cpp - Compile/dlopen/run backend tests -------------===//
//
// Part of the liftcpp project.
//
// Exercises the native execution backend end to end (bit-identity
// against the simulator, thread-count determinism, unloading a kernel
// after a multi-threaded run, the compiled-kernel cache) and each
// recoverable error path: compiler not found, compile failure with
// diagnostics, a hung compiler killed at the time limit, missing entry
// symbol. Also pins the temp
// hygiene contract — a private $TMPDIR is left empty after both
// successful and failing compilations.
//
//===----------------------------------------------------------------------===//

#include "codegen/Runner.h"
#include "ir/StructuralHash.h"
#include "native/NativeRunner.h"
#include "rewrite/Lowering.h"
#include "stencil/Benchmarks.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>
#include <string>
#include <vector>

using namespace lift;
using namespace lift::native;
using namespace lift::stencil;

namespace {

bool haveToolchain() {
  try {
    probeToolchain();
    return true;
  } catch (const NativeError &) {
    return false;
  }
}

#define REQUIRE_TOOLCHAIN()                                                  \
  if (!haveToolchain())                                                      \
  GTEST_SKIP() << "no usable host C compiler; skipping native test"

/// A benchmark lowered, compiled and ready to execute on either
/// backend at its measurement grid.
struct Built {
  codegen::Compiled C;
  std::vector<std::vector<float>> Inputs;
  ocl::SizeEnv Sizes;
  std::uint64_t LowHash = 0;
};

Built buildBench(const std::string &Name, bool Tiled) {
  const Benchmark &B = findBenchmark(Name);
  BenchmarkInstance I = B.Build();
  rewrite::LoweringOptions O;
  if (Tiled) {
    O.Tile = true;
    O.TileOutputs = 16;
    O.UseLocalMem = true;
  }
  std::string WhyNot;
  ir::Program Low = rewrite::lowerStencil(I.P, O, &WhyNot);
  if (!Low)
    throw std::runtime_error("lowering failed: " + WhyNot);
  Built R;
  R.C = codegen::compileProgram(Low, B.Name);
  R.Inputs = makeBenchmarkInputs(B, B.MeasureExtents);
  R.Sizes = makeSizeEnv(I, B.MeasureExtents);
  R.LowHash = ir::structuralHash(Low);
  return R;
}

/// Bit-exact float comparison (0.0f == -0.0f and NaN != NaN under
/// operator==, so memcmp is the honest check).
bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

std::size_t countDirEntries(const std::string &Dir) {
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return std::size_t(-1);
  std::size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      ++N;
  }
  ::closedir(D);
  return N;
}

const char *TrivialEntry =
    "\nvoid tiny_entry(void **bufs, const long long *sizes, int threads)"
    " { (void)bufs; (void)sizes; (void)threads; }\n";

//===----------------------------------------------------------------------===//
// End-to-end execution
//===----------------------------------------------------------------------===//

TEST(NativeRunner, UntiledMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  for (unsigned Threads : {1u, 3u}) {
    NativeRunResult NR =
        runNative(B.C, *Kern, B.Inputs, B.Sizes, Threads);
    EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output))
        << "native output diverged from simulator at " << Threads
        << " thread(s)";
    EXPECT_GT(NR.Seconds, 0.0);
  }
}

TEST(NativeRunner, TiledLocalMatchesSimulatorBitExactly) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/true);
  codegen::RunResult Sim = codegen::runCompiled(B.C, B.Inputs, B.Sizes);

  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult NR =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/3);
  EXPECT_TRUE(bitIdentical(NR.Output, Sim.Output));
}

TEST(NativeRunner, WarmupAndRepeatsKeepOutputStable) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr Kern = compileKernel(B.C.K);
  NativeRunResult Once =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1);
  NativeRunResult Timed =
      runNative(B.C, *Kern, B.Inputs, B.Sizes, /*Threads=*/1,
                /*Warmup=*/2, /*Repeats=*/3);
  // Re-running on the same buffers must not perturb the result (the
  // kernels read inputs and write the output; no accumulation).
  EXPECT_TRUE(bitIdentical(Timed.Output, Once.Output));
  EXPECT_GT(Timed.Seconds, 0.0);
}

TEST(NativeRunner, UnloadAfterMultiThreadedRunThenReload) {
  // Dropping the last reference dlclose()s the kernel. The OpenMP
  // runtime it pulled in must outlive it: its worker threads are still
  // parked inside the runtime after a multi-threaded run.
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  std::vector<float> First;
  for (int I = 0; I != 20; ++I) {
    NativeKernelPtr Kern = compileKernel(B.C.K);
    NativeRunResult NR = runNative(B.C, *Kern, B.Inputs, B.Sizes, 3);
    if (I == 0)
      First = NR.Output;
    ASSERT_TRUE(bitIdentical(NR.Output, First)) << "reload " << I;
  }
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

TEST(NativeRunner, CacheReturnsIdenticalKernelOnHit) {
  REQUIRE_TOOLCHAIN();
  Built B = buildBench("Stencil2D", /*Tiled=*/false);
  KernelCache &C = KernelCache::global();
  C.clear();
  NativeKernelPtr K1 = C.getOrCompile(B.LowHash, B.C.K);
  NativeKernelPtr K2 = C.getOrCompile(B.LowHash, B.C.K);
  EXPECT_EQ(K1.get(), K2.get()) << "cache hit must share the mapping";
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.hits(), 1u);

  // Collision resolution is by emitted source, not by trusting the
  // hash: an independently built instance of the same benchmark emits
  // byte-identical C (deterministic emission), so under the same
  // bucket key it shares the compiled kernel rather than recompiling.
  Built B2 = buildBench("Stencil2D", /*Tiled=*/false);
  NativeKernelPtr K3 = C.getOrCompile(B.LowHash, B2.C.K);
  EXPECT_EQ(K3.get(), K1.get());
  EXPECT_EQ(C.hits(), 2u);
  C.clear();
}

//===----------------------------------------------------------------------===//
// Error paths (all RecoverableError subclasses; never asserts)
//===----------------------------------------------------------------------===//

TEST(NativeRunner, ExplicitBadCompilerPathIsCompilerNotFound) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  EXPECT_THROW(findCompiler(O), CompilerNotFoundError);
  EXPECT_THROW(compileCSource(TrivialEntry, "tiny_entry", O),
               CompilerNotFoundError);
}

TEST(NativeRunner, CompilerNotFoundIsRecoverable) {
  NativeOptions O;
  O.CompilerPath = "/nonexistent/lift-test-cc";
  try {
    findCompiler(O);
    FAIL() << "expected CompilerNotFoundError";
  } catch (const RecoverableError &Ex) {
    EXPECT_NE(std::string(Ex.what()).find("/nonexistent/lift-test-cc"),
              std::string::npos)
        << "message should name the missing compiler";
  }
}

TEST(NativeRunner, CompileFailureCarriesDiagnosticsAndSource) {
  REQUIRE_TOOLCHAIN();
  const std::string Broken = "\nvoid broken(void) { this is not C\n";
  try {
    compileCSource(Broken, "broken");
    FAIL() << "expected CompileFailedError";
  } catch (const CompileFailedError &Ex) {
    EXPECT_FALSE(Ex.Diagnostics.empty())
        << "compiler stderr must be captured";
    EXPECT_EQ(Ex.Source, Broken)
        << "the failing source must ride along for artifacts";
    EXPECT_NE(std::string(Ex.what()).find("failed"), std::string::npos);
  }
}

TEST(NativeRunner, HungCompilerIsKilledAtTheTimeLimit) {
  // A "compiler" that never finishes: one child process, killed at the
  // deadline, reported as a recoverable compile failure.
  char Dir[] = "/tmp/lift-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  std::string Script = std::string(Dir) + "/hung-cc";
  {
    std::FILE *F = std::fopen(Script.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("#!/bin/sh\nexec sleep 60\n", F);
    std::fclose(F);
  }
  ASSERT_EQ(::chmod(Script.c_str(), 0755), 0);
  const char *OldCC = std::getenv("LIFT_NATIVE_CC");
  std::string SavedCC = OldCC ? OldCC : "";
  ::setenv("LIFT_NATIVE_CC", Script.c_str(), 1);

  NativeOptions O;
  O.CompileTimeoutSeconds = 1;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_THROW(compileCSource(TrivialEntry, "tiny_entry", O),
               CompileFailedError);
  double Waited = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
  EXPECT_GE(Waited, 1.0);
  EXPECT_LT(Waited, 10.0) << "the hung compiler was not killed";

  if (OldCC)
    ::setenv("LIFT_NATIVE_CC", SavedCC.c_str(), 1);
  else
    ::unsetenv("LIFT_NATIVE_CC");
  ::unlink(Script.c_str());
  ::rmdir(Dir);
}

TEST(NativeRunner, MissingEntrySymbolIsSymbolNotFound) {
  REQUIRE_TOOLCHAIN();
  EXPECT_THROW(compileCSource(TrivialEntry, "no_such_symbol"),
               SymbolNotFoundError);
}

TEST(NativeRunner, TempDirLeftEmptyOnSuccessAndFailure) {
  REQUIRE_TOOLCHAIN();

  // Point the backend at a private TMPDIR so this test observes only
  // its own compilations.
  char Priv[] = "/tmp/lift-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(Priv), nullptr);
  const char *OldTmp = std::getenv("TMPDIR");
  std::string Saved = OldTmp ? OldTmp : "";
  ::setenv("TMPDIR", Priv, 1);

  NativeKernelPtr Kern = compileCSource(TrivialEntry, "tiny_entry");
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "successful compile left files behind";

  EXPECT_THROW(compileCSource("\nvoid nope( {\n", "nope"),
               CompileFailedError);
  EXPECT_EQ(countDirEntries(Priv), 0u)
      << "failed compile left files behind";

  // The mapping survives the deletion of its backing file: the kernel
  // is still callable after its .so was unlinked.
  void *Bufs[1] = {nullptr};
  long long Sz[1] = {0};
  Kern->entry()(Bufs, Sz, 1);

  if (OldTmp)
    ::setenv("TMPDIR", Saved.c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  ::rmdir(Priv);
}

} // namespace
