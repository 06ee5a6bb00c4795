//===- Workload.cpp - Benchmark workloads, set-up and verification -------===//

#include "Workload.h"

#include "ast/AstPrinter.h"
#include "ast/Transforms.h"
#include "batch/BatchRepair.h"
#include "frontend/Parser.h"
#include "fuzz/RandomProgram.h"
#include "obs/Metrics.h"
#include "repair/ConstructChoice.h"
#include "repair/DepGraph.h"
#include "sched/Schedule.h"
#include "sema/Sema.h"
#include "suite/Benchmarks.h"
#include "suite/Experiment.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace tdr;

namespace perfbench {
namespace {

/// How a suite program's input shrinks by one ladder level.
enum class Scale {
  Halve,    ///< first argument halves
  MinusOne, ///< first argument drops by one (factorial/exponential work)
  Area,     ///< first two arguments shrink by sqrt(2) (image size)
};

struct SuiteJob {
  const char *Name;
  std::vector<int64_t> Full;
  Scale How;
};

// Long executions with few races: interpretation, S-DPST construction,
// the detector's check path and trace record/replay carry the run.
const std::vector<SuiteJob> ExecHeavyJobs = {
    {"FannKuch", {7}, Scale::MinusOne},
    {"Mandelbrot", {100, 100, 60}, Scale::Area},
    {"Crypt", {1600, 25}, Scale::Halve},
    {"Nqueens", {8}, Scale::MinusOne},
};

// Small executions with many racing pairs or wide dependence graphs: the
// detector's report path and the placement DP carry the run.
const std::vector<SuiteJob> RaceDenseJobs = {
    {"Mergesort", {4000}, Scale::Halve},
    {"LUFact", {32, 4}, Scale::Halve},
    {"Series", {220}, Scale::Halve},
    {"Sparse", {700, 6, 4, 10}, Scale::Halve},
    {"Spanning Tree", {1000, 6, 25}, Scale::Halve},
};

/// Generated programs per many-small run.
constexpr size_t SmallPrograms = 16000;
constexpr size_t QuickSmallPrograms = 64;
/// What makes a generated program small: in its unrepaired run, at most
/// this many interpreter work units and racing step pairs, and no
/// dependence group wider than this many nodes. Placement cost grows
/// cubically with group width and detection with pairs, so the ~2% of
/// programs beyond these bounds take from 0.1 s up to tens of seconds each
/// and would decide a run's throughput alone; wide groups and dense races
/// are race-dense's regime. The work bound is checked first, by a plain
/// run: no small program comes near it, and it keeps set-up from detecting
/// races in the few programs with millions of pairs (up to a second each).
constexpr uint64_t SmallMaxWork = 16384;
constexpr size_t SmallMaxPairs = 16384;
constexpr size_t SmallMaxGroupNodes = 64;
/// Suite inputs in quick mode: 2^-3 of the full input.
constexpr unsigned QuickLevel = 3;

std::vector<int64_t> argsAt(const SuiteJob &J, unsigned Level) {
  std::vector<int64_t> A = J.Full;
  switch (J.How) {
  case Scale::Halve:
    A[0] = std::max<int64_t>(4, A[0] >> Level);
    break;
  case Scale::MinusOne:
    A[0] = std::max<int64_t>(4, A[0] - static_cast<int64_t>(Level));
    break;
  case Scale::Area: {
    double F = std::pow(0.5, Level / 2.0);
    A[0] = std::max<int64_t>(8, std::llround(static_cast<double>(A[0]) * F));
    A[1] = std::max<int64_t>(8, std::llround(static_cast<double>(A[1]) * F));
    break;
  }
  }
  return A;
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

struct Parsed {
  std::unique_ptr<AstContext> Ctx = std::make_unique<AstContext>();
  Program *Prog = nullptr;
  bool Ok = false;
};

Parsed parseAndCheck(const std::string &Source) {
  Parsed P;
  SourceManager SM("job.hj", Source);
  DiagnosticsEngine Diags;
  Parser Parse(SM.buffer(), *P.Ctx, Diags);
  P.Prog = Parse.parseProgram();
  if (!Diags.hasErrors())
    runSema(*P.Prog, *P.Ctx, Diags);
  P.Ok = !Diags.hasErrors();
  return P;
}

/// Output of the serial elision of \p P (which is consumed).
bool elisionOutput(Parsed &P, const ExecOptions &Exec, std::string &Out) {
  elideParallelism(*P.Prog);
  DiagnosticsEngine Diags;
  runSema(*P.Prog, *P.Ctx, Diags);
  if (Diags.hasErrors())
    return false;
  ExecResult R = runProgram(*P.Prog, Exec);
  Out = R.Output;
  return R.Ok;
}

/// T-infinity of a race-free program; 0 when it races or fails.
uint64_t criticalPath(const Program &P, const ExecOptions &Exec) {
  Detection D = detectRaces(P, pinnedDetectOptions(), Exec);
  if (!D.ok() || !D.Report.Pairs.empty())
    return 0;
  return analyzeDpst(*D.Tree, 12).Tinf;
}

JobSpec suiteJob(const SuiteJob &S, unsigned Level, uint64_t Seed) {
  const BenchmarkSpec *Spec = findBenchmark(S.Name);
  if (!Spec)
    die(std::string("unknown suite program ") + S.Name);
  JobSpec J;
  J.Name = Level ? std::string(S.Name) + "@L" + std::to_string(Level)
                 : std::string(S.Name);
  J.Level = Level;
  J.Exec.Args = argsAt(S, Level);
  J.Exec.Seed = Seed;
  {
    LoadedBenchmark B = loadBenchmark(Spec->Source);
    stripFinishes(*B.Prog);
    J.BuggySource = printProgram(*B.Prog);
  }
  {
    Parsed E = parseAndCheck(Spec->Source);
    if (!E.Ok || !elisionOutput(E, J.Exec, J.RefOutput))
      die("serial elision of " + J.Name + " failed");
  }
  LoadedBenchmark Expert = loadBenchmark(Spec->Source);
  J.RefTinf = criticalPath(*Expert.Prog, J.Exec);
  if (!J.RefTinf)
    die("expert version of " + J.Name + " is not race free");
  return J;
}

/// Generated program \p I of the run seeded \p Seed: even indices use the
/// default profile, odd ones the constructs profile (futures, isolated,
/// forasync). A program whose elision fails is kept with RefOk false and
/// counted as a failed job by verify(). Returns false when the program is
/// not small (see SmallMaxWork).
bool smallJob(uint64_t Seed, size_t I, JobSpec &J) {
  uint64_t GenSeed = Seed * 100000 + I;
  bool Constructs = I & 1;
  fuzz::RandomProgramGen Gen(GenSeed);
  if (Constructs)
    Gen.enableConstructs();
  J.Name = "gen" + std::to_string(GenSeed) + (Constructs ? "c" : "d");
  J.BuggySource = Gen.generate();
  J.Exec.Seed = GenSeed;
  Parsed P = parseAndCheck(J.BuggySource);
  if (P.Ok) {
    if (runProgram(*P.Prog, J.Exec).TotalWork > SmallMaxWork)
      return false;
    Detection D = detectRaces(*P.Prog, pinnedDetectOptions(), J.Exec);
    if (D.ok()) {
      if (D.Report.Pairs.size() > SmallMaxPairs)
        return false;
      for (const DepGroup &G : buildDepGroups(*D.Tree, D.Report.Pairs))
        if (G.Nodes.size() > SmallMaxGroupNodes)
          return false;
      // The schedule model has no futures yet, so only default-profile
      // programs get a critical-path reference.
      if (!Constructs)
        J.RefTinf = analyzeDpst(*D.Tree, 12).Tinf;
    }
  }
  Parsed E = parseAndCheck(J.BuggySource);
  J.RefOk = E.Ok && elisionOutput(E, J.Exec, J.RefOutput);
  return true;
}

/// The small programs among generated programs 0 .. Generate-1, in index
/// order, set up on \p Workers threads of the batch layer's pool;
/// \p Screened counts the ones passed over.
std::vector<JobSpec> smallJobs(uint64_t Seed, size_t Generate,
                               unsigned Workers, size_t &Screened) {
  std::vector<JobSpec> All(Generate);
  std::vector<char> Small(Generate);
  runJobsOrdered(Generate, Workers, [&](size_t I) {
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    Small[I] = smallJob(Seed, I, All[I]);
  });
  std::vector<JobSpec> Jobs;
  for (size_t I = 0; I != Generate; ++I)
    if (Small[I])
      Jobs.push_back(std::move(All[I]));
  Screened = Generate - Jobs.size();
  return Jobs;
}

unsigned smallWorkers(const SetupConfig &C) {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  return C.Workers ? C.Workers : std::min(4u, HW);
}

const std::vector<SuiteJob> &suiteJobs(WorkloadKind K) {
  return K == WorkloadKind::ExecHeavy ? ExecHeavyJobs : RaceDenseJobs;
}

} // namespace

bool parseWorkload(const std::string &Name, WorkloadKind &Out) {
  if (Name == "exec-heavy")
    Out = WorkloadKind::ExecHeavy;
  else if (Name == "race-dense")
    Out = WorkloadKind::RaceDense;
  else if (Name == "many-small")
    Out = WorkloadKind::ManySmall;
  else
    return false;
  return true;
}

RepairOptions pinnedRepairOptions(const ExecOptions &Exec) {
  RepairOptions O;
  O.Mode = EspBagsDetector::Mode::MRW;
  O.Backend = DetectBackend::EspBags;
  O.Exec = Exec;
  O.UseReplay = true;
  O.ReplayCheck = false;
  O.Constructs = constructs::Default;
  return O;
}

DetectOptions pinnedDetectOptions() {
  DetectOptions O;
  O.Mode = EspBagsDetector::Mode::MRW;
  O.Backend = DetectBackend::EspBags;
  return O;
}

Workload setupWorkload(const SetupConfig &C) {
  Workload W;
  W.Kind = C.Kind;
  if (C.Kind == WorkloadKind::ManySmall) {
    W.Workers = smallWorkers(C);
    W.Jobs = smallJobs(C.Seed, C.Quick ? QuickSmallPrograms : SmallPrograms,
                       W.Workers, W.Screened);
    return W;
  }
  for (const SuiteJob &S : suiteJobs(C.Kind))
    W.Jobs.push_back(suiteJob(S, C.Quick ? QuickLevel : 0, C.Seed));
  return W;
}

std::vector<JobSpec> ladderJobs(const SetupConfig &C,
                                const std::vector<unsigned> &Levels,
                                size_t MaxSmall) {
  std::vector<JobSpec> Jobs;
  if (C.Kind == WorkloadKind::ManySmall) {
    size_t Screened = 0;
    return smallJobs(C.Seed, MaxSmall, smallWorkers(C), Screened);
  }
  for (const SuiteJob &S : suiteJobs(C.Kind))
    for (unsigned L : Levels)
      Jobs.push_back(suiteJob(S, L, C.Seed));
  return Jobs;
}

Verdict verify(const JobSpec &J, const Outcome &O) {
  Verdict V;
  if (!J.RefOk) {
    V.Reason = "serial elision of the input failed to run";
    return V;
  }
  if (!O.Success) {
    V.Reason = "repair failed: " + O.Error;
    return V;
  }
  Parsed P = parseAndCheck(O.Text);
  if (!P.Ok) {
    V.Reason = "repaired text does not parse and pass sema";
    return V;
  }
  Detection D = detectRaces(*P.Prog, pinnedDetectOptions(), J.Exec);
  if (!D.ok()) {
    V.Reason = "repaired program fails to run";
    return V;
  }
  if (!D.Report.Pairs.empty()) {
    V.Reason = "races remain in the repaired program";
    return V;
  }
  if (D.Exec.Output != J.RefOutput) {
    V.Reason = "output differs from the serial elision";
    return V;
  }
  if (J.RefTinf)
    V.CplRatio = static_cast<double>(analyzeDpst(*D.Tree, 12).Tinf) /
                 static_cast<double>(J.RefTinf);
  V.Ok = true;
  return V;
}

} // namespace perfbench
