//===- NativeRunner.cpp - Compile-and-run-natively --------------------------===//
//
// Part of the liftcpp project.
//
//===----------------------------------------------------------------------===//

#include "native/NativeRunner.h"

#include "obs/Clock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;

extern char **environ;

namespace {

bool isExecutableFile(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode) &&
         ::access(Path.c_str(), X_OK) == 0;
}

/// Resolves \p Name against $PATH (absolute/relative paths are checked
/// directly). Returns the usable path or empty.
std::string resolveExecutable(const std::string &Name) {
  if (Name.empty())
    return "";
  if (Name.find('/') != std::string::npos)
    return isExecutableFile(Name) ? Name : "";
  const char *PathEnv = std::getenv("PATH");
  if (!PathEnv)
    return "";
  std::string Paths(PathEnv);
  std::size_t Pos = 0;
  while (Pos <= Paths.size()) {
    std::size_t Colon = Paths.find(':', Pos);
    if (Colon == std::string::npos)
      Colon = Paths.size();
    std::string Dir = Paths.substr(Pos, Colon - Pos);
    if (!Dir.empty()) {
      std::string Cand = Dir + "/" + Name;
      if (isExecutableFile(Cand))
        return Cand;
    }
    Pos = Colon + 1;
  }
  return "";
}

/// Removes one temp compilation directory and its known contents on
/// every exit path.
class TempDir {
public:
  explicit TempDir(bool Keep) : Keep(Keep) {
    const char *Base = std::getenv("TMPDIR");
    std::string Tmpl = (Base && *Base ? std::string(Base) : "/tmp");
    if (Tmpl.back() == '/')
      Tmpl.pop_back();
    Tmpl += "/liftc-native-XXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      throw NativeError("native backend: mkdtemp failed under " + Tmpl);
    Dir = Buf.data();
  }

  ~TempDir() {
    if (Keep || Dir.empty())
      return;
    for (const std::string &F : Files)
      ::unlink(F.c_str());
    ::rmdir(Dir.c_str());
  }

  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  /// Registers (and returns) a path inside the directory for cleanup.
  std::string file(const std::string &Name) {
    Files.push_back(Dir + "/" + Name);
    return Files.back();
  }

  const std::string &path() const { return Dir; }

private:
  std::string Dir;
  std::vector<std::string> Files;
  bool Keep;
};

void writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    throw NativeError("native backend: cannot write " + Path);
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
}

/// What one child process left behind.
struct CommandResult {
  int ExitCode = -1; ///< -1: not started, killed, or died on a signal
  bool TimedOut = false;
  std::string Output; ///< combined stdout + stderr
};

/// Spawns \p Argv (Argv[0] is a path, no shell) with stdout and stderr
/// on one pipe, collecting the output until the child exits or
/// \p TimeoutSeconds pass. The child leads its own process group, so
/// at the deadline the whole group (the compiler driver and the
/// cc1/as/ld it started) is killed and reaped.
CommandResult runCommand(const std::vector<std::string> &Argv,
                         double TimeoutSeconds) {
  using Clock = std::chrono::steady_clock;
  CommandResult R;
  // Close-on-exec, so children spawned concurrently from other threads
  // never hold this pipe open; the dup2s below clear it for ours.
  int Fds[2];
  if (::pipe2(Fds, O_CLOEXEC) != 0)
    return R;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&Actions, Fds[1], STDERR_FILENO);
  posix_spawnattr_t Attr;
  posix_spawnattr_init(&Attr);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&Attr, 0);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = 0;
  int SpawnErr =
      ::posix_spawn(&Pid, Args[0], &Actions, &Attr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  posix_spawnattr_destroy(&Attr);
  ::close(Fds[1]);
  if (SpawnErr != 0) {
    ::close(Fds[0]);
    return R;
  }

  // Capped (NaN included) so the duration cast below cannot overflow.
  if (!(TimeoutSeconds < 1e9))
    TimeoutSeconds = 1e9;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(TimeoutSeconds));
  auto MsLeft = [&Deadline] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Deadline - Clock::now())
        .count();
  };
  char Buf[4096];
  bool Eof = false;
  while (!Eof) {
    long long Left = MsLeft();
    if (Left <= 0) {
      R.TimedOut = true;
      break;
    }
    struct pollfd P = {Fds[0], POLLIN, 0};
    int N = ::poll(&P, 1, int(std::min<long long>(Left, 1 << 30)));
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0)
      continue;
    ssize_t Got = ::read(Fds[0], Buf, sizeof(Buf));
    if (Got > 0)
      R.Output.append(Buf, std::size_t(Got));
    else if (Got == 0)
      Eof = true;
    else if (errno != EINTR)
      break;
  }
  ::close(Fds[0]);
  // EOF means the compiler and everything it started closed the pipe,
  // i.e. exited, so the wait below returns at once. Anything else
  // (the deadline, a failed poll or read) kills the group first.
  if (!Eof)
    ::kill(-Pid, SIGKILL);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (Eof && WIFEXITED(Status))
    R.ExitCode = WEXITSTATUS(Status);
  return R;
}

std::string formatSeconds(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g s", S);
  return Buf;
}

/// One compile attempt.
CommandResult invokeCompiler(const std::string &Compiler,
                             const std::string &Src, const std::string &Obj,
                             const NativeOptions &O, bool WithOpenMP) {
  std::vector<std::string> Argv = {Compiler,
                                   "-O" + std::to_string(O.OptLevel),
                                   "-fPIC", "-shared", "-ffp-contract=off"};
  if (WithOpenMP)
    Argv.push_back("-fopenmp");
  for (const char *A : {"-o", Obj.c_str(), Src.c_str(), "-lm"})
    Argv.push_back(A);
  return runCommand(Argv, O.CompileTimeoutSeconds);
}

/// Loads the OpenMP runtime of \p Compiler (libgomp for gcc, libomp
/// for clang) once per process and never unloads it. Without the pin a
/// kernel's .so holds the only reference: its dlclose unmaps the
/// runtime while the runtime's parked worker threads still sleep inside
/// it, and they fault. A runtime that cannot be loaded is left alone;
/// the -fopenmp link then fails the same way and the sequential retry
/// needs no runtime.
void pinOpenMPRuntime(const std::string &Compiler) {
  static std::once_flag Once;
  std::call_once(Once, [&Compiler] {
    // `cc` is usually a link to the real driver; its name tells the
    // family.
    char *Real = ::realpath(Compiler.c_str(), nullptr);
    std::string Path = Real ? Real : Compiler;
    std::free(Real);
    bool Clang = Path.find("clang", Path.rfind('/') + 1) != std::string::npos;
    ::dlopen(Clang ? "libomp.so" : "libgomp.so.1",
             RTLD_NOW | RTLD_GLOBAL | RTLD_NODELETE);
  });
}

/// Recovers the entry name from emitted source: the emitter may have
/// renamed the kernel on collision with a reserved word, so the
/// signature line is the source of truth.
std::string entryNameFromSource(const std::string &Source) {
  std::size_t At = Source.find("\nvoid ");
  std::size_t Paren =
      Source.find('(', At == std::string::npos ? 0 : At);
  if (At == std::string::npos || Paren == std::string::npos)
    fatalError("native backend: emitted source has no entry signature");
  return Source.substr(At + 6, Paren - (At + 6));
}

} // namespace

std::string lift::native::findCompiler(const NativeOptions &O) {
  std::vector<std::string> Candidates;
  if (!O.CompilerPath.empty()) {
    // An explicit path must work; no silent fallback past a typo.
    std::string R = resolveExecutable(O.CompilerPath);
    if (R.empty())
      throw CompilerNotFoundError(
          "native backend: compiler '" + O.CompilerPath +
          "' not found or not executable");
    return R;
  }
  if (const char *E = std::getenv("LIFT_NATIVE_CC"))
    Candidates.push_back(E);
  if (const char *E = std::getenv("CC"))
    Candidates.push_back(E);
  Candidates.push_back("cc");
  Candidates.push_back("gcc");
  Candidates.push_back("clang");
  for (const std::string &C : Candidates) {
    std::string R = resolveExecutable(C);
    if (!R.empty())
      return R;
  }
  throw CompilerNotFoundError(
      "native backend: no host C compiler found (tried $LIFT_NATIVE_CC, "
      "$CC, cc, gcc, clang); set LIFT_NATIVE_CC or install one");
}

NativeKernel::NativeKernel(void *Handle, void *Sym, bool Profiled,
                           std::string Source)
    : Handle(Handle), Sym(Sym), Profiled(Profiled),
      Source(std::move(Source)) {}

NativeKernel::~NativeKernel() {
  if (Handle)
    ::dlclose(Handle);
}

NativeKernel::EntryFn NativeKernel::entry() const {
  if (Profiled)
    fatalError("native backend: profiled kernel called through the "
               "unprofiled entry ABI");
  EntryFn F;
  static_assert(sizeof(F) == sizeof(Sym), "function pointer size");
  std::memcpy(&F, &Sym, sizeof(F));
  return F;
}

NativeKernel::ProfiledEntryFn NativeKernel::profiledEntry() const {
  if (!Profiled)
    fatalError("native backend: unprofiled kernel called through the "
               "profiled entry ABI");
  ProfiledEntryFn F;
  static_assert(sizeof(F) == sizeof(Sym), "function pointer size");
  std::memcpy(&F, &Sym, sizeof(F));
  return F;
}

NativeKernelPtr lift::native::compileCSource(const std::string &Source,
                                             const std::string &EntryName,
                                             const NativeOptions &O) {
  obs::Span CompSpan("native.compile", "native");
  CompSpan.arg("entry", EntryName);
  std::string Compiler = findCompiler(O);

  TempDir Tmp(O.KeepTemps);
  std::string Src = Tmp.file(EntryName + ".c");
  std::string Obj = Tmp.file(EntryName + ".so");
  writeFile(Src, Source);

  CommandResult Run = invokeCompiler(Compiler, Src, Obj, O, O.OpenMP);
  if (Run.TimedOut)
    throw CompileFailedError("native backend: '" + Compiler +
                                 "' was killed at the compile time limit (" +
                                 formatSeconds(O.CompileTimeoutSeconds) +
                                 "):\n" + Run.Output,
                             Run.Output, Source);
  if (Run.ExitCode != 0 && O.OpenMP) {
    // Some toolchains (clang without libomp) cannot link -fopenmp;
    // retry sequentially — the pragmas are then inert, which is still
    // correct, just single-threaded.
    CommandResult Seq =
        invokeCompiler(Compiler, Src, Obj, O, /*WithOpenMP=*/false);
    if (Seq.ExitCode == 0 && !Seq.TimedOut)
      Run = std::move(Seq);
  }
  if (Run.ExitCode != 0)
    throw CompileFailedError("native backend: '" + Compiler +
                                 "' failed (exit " +
                                 std::to_string(Run.ExitCode) + "):\n" +
                                 Run.Output,
                             Run.Output, Source);

  pinOpenMPRuntime(Compiler);
  void *Handle = ::dlopen(Obj.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *E = ::dlerror();
    throw NativeError(std::string("native backend: dlopen failed: ") +
                      (E ? E : "unknown error"));
  }
  ::dlerror();
  void *Sym = ::dlsym(Handle, EntryName.c_str());
  if (!Sym) {
    // Copied first: dlclose frees the buffer dlerror points into.
    const char *E = ::dlerror();
    std::string Detail = E ? std::string(" (") + E + ")" : std::string();
    ::dlclose(Handle);
    throw SymbolNotFoundError("native backend: entry symbol '" + EntryName +
                              "' not found in compiled kernel" + Detail);
  }
  obs::Registry::global().counter("native.compiles").inc();
  // The signature line tells the ABI apart: profile-mode sources take
  // the extra lift_prof accumulator parameter.
  bool Profiled = Source.find(", double *lift_prof)") != std::string::npos;
  // TempDir now removes source and object; the mapping stays valid.
  return std::make_shared<NativeKernel>(Handle, Sym, Profiled, Source);
}

NativeKernelPtr lift::native::compileKernel(const ocl::Kernel &K,
                                            const NativeOptions &O) {
  CEmitOptions EO;
  EO.OpenMP = O.EmitOpenMP;
  EO.Profile = O.Profile;
  std::string Source = emitC(K, EO);
  return compileCSource(Source, entryNameFromSource(Source), O);
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

struct KernelCache::Entry {
  std::mutex M;
  std::condition_variable CV;
  bool Ready = false;
  std::string Source; ///< key part: resolves hash collisions
  NativeKernelPtr Kernel;
  std::string Error; ///< non-empty: cached compile failure

  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [this] { return Ready; });
  }
};

KernelCache &KernelCache::global() {
  static KernelCache *C = new KernelCache(); // leaked like the registries
  return *C;
}

NativeKernelPtr KernelCache::getOrCompile(std::uint64_t LoweredHash,
                                          const ocl::Kernel &K,
                                          const NativeOptions &O) {
  CEmitOptions EO;
  EO.OpenMP = O.EmitOpenMP;
  EO.Profile = O.Profile;
  std::string Source = emitC(K, EO);

  std::shared_ptr<Entry> E;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(M);
    auto Range = Map.equal_range(LoweredHash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second->Source == Source) {
        E = It->second;
        break;
      }
    if (E) {
      ++Hits;
    } else {
      ++Misses;
      Owner = true;
      E = std::make_shared<Entry>();
      E->Source = Source;
      Map.emplace(LoweredHash, E);
    }
  }
  obs::Registry::global()
      .counter(Owner ? "native.cache.misses" : "native.cache.hits")
      .inc();

  if (Owner) {
    NativeKernelPtr Kern;
    std::string Err;
    try {
      Kern = compileCSource(Source, entryNameFromSource(Source), O);
    } catch (const NativeError &Ex) {
      Err = Ex.what();
    }
    {
      std::lock_guard<std::mutex> Lock(E->M);
      E->Kernel = Kern;
      E->Error = Err;
      E->Ready = true;
    }
    E->CV.notify_all();
  } else {
    E->wait();
  }
  if (!E->Kernel)
    throw NativeError(E->Error.empty()
                          ? std::string("native backend: cached compile "
                                        "failure")
                          : E->Error);
  return E->Kernel;
}

std::uint64_t KernelCache::hits() const {
  std::lock_guard<std::mutex> Lock(M);
  return Hits;
}

std::uint64_t KernelCache::misses() const {
  std::lock_guard<std::mutex> Lock(M);
  return Misses;
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
  Hits = Misses = 0;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void lift::native::probeToolchain(const NativeOptions &O) {
  NativeKernelPtr Probe = compileCSource(
      "void lift_probe(void **bufs, const long long *sizes, int threads) "
      "{ (void)bufs; (void)sizes; (void)threads; }\n",
      "lift_probe", O);
  void *Dummy[1] = {nullptr};
  long long Sz[1] = {0};
  Probe->entry()(Dummy, Sz, 1);
}

namespace {

/// Storage and arguments of one native execution, shared by the plain
/// and the profiled runner.
struct BoundRun {
  std::vector<std::vector<float>> FloatStore;
  std::vector<std::vector<std::int32_t>> IntStore;
  std::vector<void *> Ptrs;
  std::vector<long long> SizeVals;

  std::vector<float> takeOutput(const codegen::Compiled &C) {
    const BufferDecl &OutB = C.K.buffer(C.OutputBufferId);
    std::size_t OutIdx = std::size_t(OutB.Id);
    if (OutB.ElemKind == ir::ScalarKind::Float)
      return std::move(FloatStore[OutIdx]);
    std::vector<float> Out(IntStore[OutIdx].size());
    for (std::size_t I = 0; I != Out.size(); ++I)
      Out[I] = float(IntStore[OutIdx][I]);
    return Out;
  }
};

/// Allocates global buffers (zero-initialized exactly like the
/// simulator's fresh storage), binds inputs with the simulator
/// runner's conventions (Executor::bindInput) and resolves size
/// arguments.
BoundRun bindRun(const codegen::Compiled &C,
                 const std::vector<std::vector<float>> &Inputs,
                 const SizeEnv &Sizes) {
  if (Inputs.size() != C.InputBufferIds.size())
    fatalError("runNative: input count mismatch");
  const Kernel &K = C.K;
  BoundRun R;
  R.FloatStore.resize(K.Buffers.size());
  R.IntStore.resize(K.Buffers.size());
  for (const BufferDecl &B : K.Buffers) {
    if (B.Space != MemSpace::Global)
      continue;
    std::int64_t N = B.NumElems->evaluate(Sizes);
    if (N < 0)
      fatalError("runNative: negative buffer extent for " + B.Name);
    std::size_t Idx = std::size_t(B.Id);
    if (B.ElemKind == ir::ScalarKind::Float) {
      R.FloatStore[Idx].assign(std::size_t(N), 0.0f);
      R.Ptrs.push_back(R.FloatStore[Idx].data());
    } else {
      R.IntStore[Idx].assign(std::size_t(N), 0);
      R.Ptrs.push_back(R.IntStore[Idx].data());
    }
  }

  for (std::size_t I = 0; I != Inputs.size(); ++I) {
    const BufferDecl &B = K.buffer(C.InputBufferIds[I]);
    std::size_t Idx = std::size_t(B.Id);
    if (B.ElemKind == ir::ScalarKind::Float) {
      if (Inputs[I].size() != R.FloatStore[Idx].size())
        fatalError("runNative: size mismatch for buffer " + B.Name +
                   " (got " + std::to_string(Inputs[I].size()) + ", want " +
                   std::to_string(R.FloatStore[Idx].size()) + ")");
      R.FloatStore[Idx] = Inputs[I];
    } else {
      if (Inputs[I].size() != R.IntStore[Idx].size())
        fatalError("runNative: size mismatch for int buffer " + B.Name);
      for (std::size_t J = 0; J != Inputs[I].size(); ++J)
        R.IntStore[Idx][J] = std::int32_t(Inputs[I][J]);
    }
  }

  for (const auto &SA : K.SizeArgs) {
    auto It = Sizes.find(SA.first);
    if (It == Sizes.end())
      fatalError("runNative: unbound size variable " + SA.second);
    R.SizeVals.push_back((long long)It->second);
  }
  // The entry dereferences lift_sizes[0] layout only up to SizeArgs
  // entries; keep the pointer valid even for zero size args.
  if (R.SizeVals.empty())
    R.SizeVals.push_back(0);
  return R;
}

/// Serializes timed sections process-wide so concurrent candidate
/// evaluations cannot contaminate each other's wall clock.
std::mutex &measureMutex() {
  static std::mutex M;
  return M;
}

} // namespace

NativeRunResult lift::native::runNative(
    const codegen::Compiled &C, const NativeKernel &Kern,
    const std::vector<std::vector<float>> &Inputs, const SizeEnv &Sizes,
    unsigned Threads, unsigned Warmup, unsigned Repeats) {
  if (Repeats == 0)
    Repeats = 1;
  if (Threads == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Threads = HW ? HW : 1;
  }

  obs::Span RunSpan("native.run", "native");
  RunSpan.arg("kernel", C.K.Name);
  RunSpan.arg("threads", std::int64_t(Threads));

  BoundRun Bound = bindRun(C, Inputs, Sizes);

  NativeRunResult R;
  {
    std::lock_guard<std::mutex> Lock(measureMutex());
    for (unsigned I = 0; I != Warmup; ++I)
      Kern.entry()(Bound.Ptrs.data(), Bound.SizeVals.data(), int(Threads));
    double Best = 0;
    for (unsigned I = 0; I != Repeats; ++I) {
      // Timed through the obs clock seam so tests can fake the clock.
      std::uint64_t T0 = obs::monotonicNowNs();
      Kern.entry()(Bound.Ptrs.data(), Bound.SizeVals.data(), int(Threads));
      double S = double(obs::monotonicNowNs() - T0) * 1e-9;
      if (I == 0 || S < Best)
        Best = S;
    }
    R.Seconds = Best;
  }
  obs::Registry::global().counter("native.runs").inc();

  R.Output = Bound.takeOutput(C);
  return R;
}

NativeProfiledResult lift::native::runNativeProfiled(
    const codegen::Compiled &C, const NativeKernel &Kern,
    const std::vector<std::vector<float>> &Inputs, const SizeEnv &Sizes,
    std::size_t NumRegions, unsigned Warmup, unsigned Repeats) {
  if (Repeats == 0)
    Repeats = 1;

  obs::Span RunSpan("native.run.profiled", "native");
  RunSpan.arg("kernel", C.K.Name);

  BoundRun Bound = bindRun(C, Inputs, Sizes);
  NativeKernel::ProfiledEntryFn Entry = Kern.profiledEntry();

  NativeProfiledResult Out;
  std::vector<double> Prof(NumRegions ? NumRegions : 1, 0.0);
  {
    std::lock_guard<std::mutex> Lock(measureMutex());
    for (unsigned I = 0; I != Warmup; ++I)
      Entry(Bound.Ptrs.data(), Bound.SizeVals.data(), 1, Prof.data());
    double Best = 0;
    for (unsigned I = 0; I != Repeats; ++I) {
      // The emitted timers accumulate; zero the slots per repeat so
      // the kept vector belongs to exactly one (the fastest) run.
      std::fill(Prof.begin(), Prof.end(), 0.0);
      std::uint64_t T0 = obs::monotonicNowNs();
      Entry(Bound.Ptrs.data(), Bound.SizeVals.data(), 1, Prof.data());
      double S = double(obs::monotonicNowNs() - T0) * 1e-9;
      if (I == 0 || S < Best) {
        Best = S;
        Out.RegionSeconds.assign(Prof.begin(), Prof.begin() + NumRegions);
      }
    }
    Out.R.Seconds = Best;
  }
  obs::Registry::global().counter("native.runs.profiled").inc();

  Out.R.Output = Bound.takeOutput(C);
  return Out;
}
