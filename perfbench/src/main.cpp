//===- main.cpp - tdr end-to-end repair benchmark -------------------------===//
///
/// \file
/// Runs one workload of repair jobs for a fixed time.
///
///   tdr_perfbench --workload exec-heavy|race-dense|many-small --seed N
///                 --seconds S --trace 0|1 [--quick] [--workers N]
///                 [--tamper] [--trace-out FILE]
///
/// --quick uses tiny inputs and one round instead of a time budget;
/// --tamper corrupts the first job's reference output (both for the
/// self-check in perfbench/run.py).
///
/// --trace 0 measures one part of the end-to-end metrics with no tracing:
/// set-up time, every job's latencies, one `tdr races` pass, verification
/// counts and peak resident size, printed as a last line "part: {json}".
/// perfbench/run.py runs several parts in fresh processes and computes the
/// metrics from them. --trace 1 is the separate traced run: the same jobs
/// with and without spans around each layer call, then the layer ladder
/// (no monitor, DpstBuilder, fused detector, recorder, replay,
/// dependence groups, DP, full repair) over each job at 1, 1/2 and 1/4 of
/// its input; its last line is the result object {"correct", "attempted",
/// "failed", "metrics"} with every per-layer metric. Every job's outputs
/// are verified after the timed region; a failed job is counted, never
/// dropped.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workload.h"

#include "ast/AstPrinter.h"
#include "batch/BatchRepair.h"
#include "dpst/Dpst.h"
#include "frontend/Parser.h"
#include "obs/Metrics.h"
#include "repair/DepGraph.h"
#include "repair/FinishPlacement.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "support/SourceManager.h"
#include "support/Timer.h"
#include "trace/EventLog.h"
#include "trace/Replay.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <map>
#include <string>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace tdr;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  bool Quick = false;
  bool Tamper = false;
  unsigned Workers = 0;
  std::string TraceOut;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "tdr_perfbench: %s\nusage: tdr_perfbench --workload "
               "exec-heavy|race-dense|many-small --seed N --seconds S "
               "--trace 0|1 [--quick] [--workers N] [--tamper] "
               "[--trace-out FILE]\n",
               Msg);
  std::exit(2);
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value for " + K).c_str());
      return Argv[++I];
    };
    uint64_t U = 0;
    if (K == "--workload") {
      A.Workload = Value();
      HaveWorkload = true;
    } else if (K == "--seed") {
      if (!parseUnsigned(Value(), A.Seed))
        usage("bad --seed");
      HaveSeed = true;
    } else if (K == "--seconds") {
      char *End = nullptr;
      const char *V = Value();
      A.Seconds = std::strtod(V, &End);
      if (End == V || *End || !(A.Seconds > 0) || A.Seconds > 3600)
        usage("bad --seconds");
      HaveSeconds = true;
    } else if (K == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Trace = V == "1";
      HaveTrace = true;
    } else if (K == "--quick") {
      A.Quick = true;
    } else if (K == "--tamper") {
      A.Tamper = true;
    } else if (K == "--workers") {
      if (!parseUnsigned(Value(), U) || U == 0 || U > 256)
        usage("bad --workers");
      A.Workers = static_cast<unsigned>(U);
    } else if (K == "--trace-out") {
      A.TraceOut = Value();
    } else {
      usage(("unknown argument " + K).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return A;
}

/// The benchmark pins its configuration; any of these would reroute or
/// slow the pipeline behind its back.
const char *const OverrideVars[] = {"TDR_BACKEND",      "TDR_BACKEND_CHECK",
                                    "TDR_REPLAY_CHECK", "TDR_LOG_SPILL",
                                    "TDR_PAR_WORKERS",  "TDR_TRACE"};

void refuseUnpinned() {
  for (const char *V : OverrideVars) {
    const char *S = std::getenv(V);
    if (S && *S) {
      std::fprintf(stderr, "tdr_perfbench: refusing to run with %s set\n", V);
      std::exit(2);
    }
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "tdr_perfbench: refusing an unoptimised build\n");
  std::exit(2);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "tdr_perfbench: refusing a sanitizer build\n");
  std::exit(2);
#endif
  std::string BT = PERFBENCH_BUILD_TYPE;
  if (BT != "Release" && BT != "RelWithDebInfo") {
    std::fprintf(stderr, "tdr_perfbench: refusing build type '%s'\n",
                 BT.c_str());
    std::exit(2);
  }
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Nearest-rank position (1-based) of percentile \p P among \p N samples.
size_t rankOf(size_t N, double P) {
  size_t R = static_cast<size_t>(std::ceil(P / 100.0 * static_cast<double>(N)));
  return std::clamp<size_t>(R, 1, N);
}

/// Nearest-rank median: always one of the samples.
double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[rankOf(V.size(), 50) - 1];
}

/// Least-squares slope of log(Y) against log(X); 0 without spread in X.
double logLogSlope(const std::vector<std::pair<double, double>> &Pts) {
  double N = 0, Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
  for (auto [X, Y] : Pts) {
    if (X <= 0)
      continue;
    double LX = std::log(X), LY = std::log(std::max(Y, 1e-6));
    N += 1;
    Sx += LX;
    Sy += LY;
    Sxx += LX * LX;
    Sxy += LX * LY;
  }
  double Den = N * Sxx - Sx * Sx;
  if (N < 2 || Den < 1e-12)
    return 0;
  return (N * Sxy - Sx * Sy) / Den;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

double rssMb() {
  std::ifstream In("/proc/self/statm");
  long Pages = 0, Resident = 0;
  In >> Pages >> Resident;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Timed loops
//===----------------------------------------------------------------------===//

/// Every attempted job of a loop, plus the first outcome of each distinct
/// job (later repeats must reproduce it exactly).
struct LoopResult {
  std::vector<double> JobMs;
  std::vector<size_t> JobIndex;
  std::vector<bool> SameAsFirst;
  std::vector<Outcome> First;
  std::vector<bool> Seen;
  double TimedSec = 0;
  // Busy time inside the job callbacks, and workers x timed seconds
  // (decomposed loops only).
  double BusyMs = 0;
  double WorkerSec = 0;

  explicit LoopResult(size_t NumJobs) : First(NumJobs), Seen(NumJobs) {}

  void record(size_t I, double Ms, Outcome &&O) {
    JobMs.push_back(Ms);
    JobIndex.push_back(I);
    if (!Seen[I]) {
      Seen[I] = true;
      First[I] = std::move(O);
      SameAsFirst.push_back(true);
      return;
    }
    SameAsFirst.push_back(O.Success == First[I].Success &&
                          O.Text == First[I].Text);
  }
  double jobsPerSec() const {
    return TimedSec > 0 ? static_cast<double>(JobMs.size()) / TimedSec : 0;
  }
};

/// The untraced end-to-end loop; a round runs every job once. Suite
/// workloads: one client calling repairSource, the way `tdr repair` runs.
/// many-small: one BatchRepairRunner batch per round; each job's latency
/// is the batch.job_ms observation in its own metrics dump. \p AfterRound
/// runs between rounds, outside the timed regions, with the time measured
/// so far.
LoopResult runEndToEndLoop(const Workload &W, const Args &A,
                           const std::function<void(double)> &AfterRound) {
  LoopResult R(W.Jobs.size());
  std::vector<RepairJob> Batch;
  for (const JobSpec &J : W.Jobs)
    Batch.push_back({J.Name, J.BuggySource, pinnedRepairOptions(J.Exec)});
  BatchRepairRunner Runner(W.Workers);
  for (unsigned Round = 0; Round == 0 || (!A.Quick && R.TimedSec < A.Seconds);
       ++Round) {
    if (W.Kind != WorkloadKind::ManySmall) {
      for (size_t I = 0; I != Batch.size(); ++I) {
        Outcome O;
        Timer T;
        RepairResult Res = repairSource(Batch[I].Source, O.Text, Batch[I].Opts);
        double Ms = T.elapsedMs();
        O.Success = Res.Success;
        O.Error = Res.Error;
        R.TimedSec += Ms / 1000;
        R.record(I, Ms, std::move(O));
      }
      AfterRound(R.TimedSec);
      continue;
    }
    // A private registry, so the per-job registries the runner merges do
    // not pile up in the global one.
    obs::MetricsRegistry Reg;
    BatchSummary Sum;
    {
      obs::ScopedMetrics Scope(Reg);
      Timer T;
      Sum = Runner.run(Batch);
      R.TimedSec += T.elapsedSec();
    }
    for (size_t I = 0; I != Sum.Results.size(); ++I) {
      BatchJobResult &Res = Sum.Results[I];
      json::ParseResult Dump = json::parse(Res.MetricsJson);
      const json::Value *Lat = Dump.Ok ? Dump.Doc.get("batch.job_ms") : nullptr;
      if (!Lat) {
        std::fprintf(stderr, "tdr_perfbench: job %s has no batch.job_ms\n",
                     Res.Name.c_str());
        std::exit(2);
      }
      Outcome O{Res.Repair.Success, Res.Repair.Error,
                std::move(Res.RepairedSource)};
      R.record(I, Lat->getNumber("sum"), std::move(O));
    }
    AfterRound(R.TimedSec);
  }
  return R;
}

std::atomic<uint64_t> NextJobId{1};

/// One repair job as repairSource runs it, split at its public calls so
/// each layer gets a span: parse, sema, repairProgram, print.
Outcome runDecomposed(const JobSpec &J, SpanLog &Log) {
  Outcome O;
  SpanLog::Scope Root(Log, "job", NextJobId.fetch_add(1));
  // A private metrics registry, as the batch runner gives every job:
  // repairProgram derives its statistics from registry deltas, so
  // concurrent jobs must not share one.
  obs::MetricsRegistry Reg;
  obs::ScopedMetrics Metrics(Reg);
  SourceManager SM("input.hj", J.BuggySource);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Program *P;
  {
    SpanLog::Scope S(Log, "frontend.parse");
    Parser Parse(SM.buffer(), Ctx, Diags);
    P = Parse.parseProgram();
  }
  if (!Diags.hasErrors()) {
    SpanLog::Scope S(Log, "sema");
    runSema(*P, Ctx, Diags);
  }
  if (Diags.hasErrors()) {
    O.Error = Diags.render(SM);
    return O;
  }
  RepairOptions Opts = pinnedRepairOptions(J.Exec);
  Opts.SM = &SM;
  RepairResult Res;
  {
    SpanLog::Scope S(Log, "repair");
    Res = repairProgram(*P, Ctx, Opts);
  }
  {
    SpanLog::Scope S(Log, "ast.print");
    O.Text = printProgram(*P);
  }
  O.Success = Res.Success;
  O.Error = Res.Error;
  return O;
}

/// One round of decomposed jobs, every job once, through the batch layer's
/// worker pool (one worker for the suite workloads); job time is measured
/// inside the job callback.
void runDecomposedRound(const Workload &W, SpanLog &Log, LoopResult &R) {
  size_t N = W.Jobs.size();
  std::vector<Outcome> Out(N);
  std::vector<double> Ms(N);
  Timer T;
  runJobsOrdered(N, W.Workers, [&](size_t I) {
    Timer JT;
    Out[I] = runDecomposed(W.Jobs[I], Log);
    Ms[I] = JT.elapsedMs();
  });
  double Sec = T.elapsedSec();
  R.TimedSec += Sec;
  R.WorkerSec += Sec * W.Workers;
  for (size_t I = 0; I != N; ++I) {
    R.BusyMs += Ms[I];
    R.record(I, Ms[I], std::move(Out[I]));
  }
}

/// The traced run's loop: rounds alternate between no spans (result 0)
/// and spans into \p Traced (result 1), so drift over the run falls on
/// both sides alike.
std::pair<LoopResult, LoopResult> runDecomposedLoops(const Workload &W,
                                                     const Args &A,
                                                     SpanLog &Traced) {
  SpanLog Off(false);
  std::pair<LoopResult, LoopResult> R{LoopResult(W.Jobs.size()),
                                      LoopResult(W.Jobs.size())};
  for (unsigned Round = 0;; ++Round) {
    double Spent = R.first.TimedSec + R.second.TimedSec;
    if (Round >= 2 && (A.Quick || Spent >= A.Seconds))
      break;
    if (Round % 2)
      runDecomposedRound(W, Traced, R.second);
    else
      runDecomposedRound(W, Off, R.first);
  }
  return R;
}

/// Wall-clock of the `tdr races` path for each job's buggy program:
/// parse, sema, MRW detection, rendering the report.
std::vector<double> racesPass(const Workload &W, size_t &Sink) {
  std::vector<double> Sec;
  for (const JobSpec &J : W.Jobs) {
    Timer T;
    SourceManager SM("input.hj", J.BuggySource);
    DiagnosticsEngine Diags;
    AstContext Ctx;
    Parser Parse(SM.buffer(), Ctx, Diags);
    Program *P = Parse.parseProgram();
    if (!Diags.hasErrors())
      runSema(*P, Ctx, Diags);
    if (!Diags.hasErrors()) {
      Detection D = detectRaces(*P, pinnedDetectOptions(), J.Exec);
      Sink += renderRaceReportKey(D.Report).size();
    }
    Sec.push_back(T.elapsedSec());
  }
  return Sec;
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

struct Checked {
  size_t Attempted = 0;
  size_t Failed = 0;
  bool Correct = true;
  std::map<std::string, size_t> Reasons;
  double CplRatio = 0; ///< geometric mean over verified jobs with a reference
  size_t CplJobs = 0;
};

/// Verifies each distinct job's first outcome once, on the workload's
/// workers, then charges every attempt: an attempt fails with its job's
/// verdict, or when it did not reproduce the first outcome. Outside every
/// timed region.
Checked check(const Workload &W, const LoopResult &R) {
  std::vector<Verdict> V(W.Jobs.size());
  runJobsOrdered(W.Jobs.size(), W.Workers, [&](size_t I) {
    if (!R.Seen[I])
      return;
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    V[I] = verify(W.Jobs[I], R.First[I]);
  });
  Checked C;
  double LogSum = 0;
  for (size_t I = 0; I != W.Jobs.size(); ++I)
    if (R.Seen[I] && V[I].Ok && V[I].CplRatio > 0) {
      LogSum += std::log(V[I].CplRatio);
      ++C.CplJobs;
    }
  C.CplRatio =
      C.CplJobs ? std::exp(LogSum / static_cast<double>(C.CplJobs)) : 0;
  for (size_t K = 0; K != R.JobIndex.size(); ++K) {
    ++C.Attempted;
    const Verdict &X = V[R.JobIndex[K]];
    std::string Reason = !R.SameAsFirst[K] ? "repair output not reproducible"
                                           : X.Reason;
    if (Reason.empty())
      continue;
    ++C.Failed;
    ++C.Reasons[Reason];
    // A repair that reports failure on a generated program is a known
    // limit of the tool and is counted; anything else is a wrong answer.
    bool Reported = Reason.rfind("repair failed: ", 0) == 0;
    if (W.Kind != WorkloadKind::ManySmall || !Reported)
      C.Correct = false;
  }
  return C;
}

void printFailures(const Checked &C) {
  std::printf("jobs: %zu attempted, %zu failed (fail_ratio %.6f)\n",
              C.Attempted, C.Failed,
              C.Attempted ? static_cast<double>(C.Failed) /
                                static_cast<double>(C.Attempted)
                          : 0.0);
  for (const auto &[Reason, N] : C.Reasons)
    std::printf("  failed %zu x %s\n", N, Reason.c_str());
}

//===----------------------------------------------------------------------===//
// The layer ladder (traced run)
//===----------------------------------------------------------------------===//

struct LadderRow {
  std::string Name;
  unsigned Level = 0;
  double ParseMs = 0, SemaMs = 0, PrintMs = 0;
  size_t SourceBytes = 0;
  double RunMs = 0;
  uint64_t Work = 0;
  double DpstMs = 0;
  size_t Nodes = 0;
  double DpstRssMb = 0;
  double DetectMs = 0;
  uint64_t RawRaces = 0;
  size_t Pairs = 0;
  size_t ShadowBytes = 0;
  double RecordMs = 0;
  size_t Events = 0;
  size_t LogBytes = 0;
  double ReplayMs = 0;
  double DepGroupsMs = 0;
  size_t Groups = 0;
  size_t MaxGroupNodes = 0;
  double DpMs = 0;
  double RepairMs = 0;
  double RepairDetectMs = 0; ///< the repair's own detections and replays
  double RepairPhaseMs = 0;  ///< its grouping, DP and static placement
  unsigned Iterations = 0;
  unsigned Finishes = 0;
  double JobMs = 0;
  double UnattributedMs = 0;

  double dpstSelfMs() const { return DpstMs - RunMs; }
  double detectSelfMs() const { return DetectMs - DpstMs; }
  double recordSelfMs() const { return RecordMs - RunMs; }
};

/// Runs one job up the ladder, each rung a public call under its own span:
/// the plain interpreter, + DpstBuilder, the fused DpstBuilder/detector, the
/// recorder, log-backed detection, dependence groups, the placement DP
/// over every group, and finally the full repair. \p MeasureRss adds an
/// untimed build that measures the resident growth of a live S-DPST.
LadderRow runLadder(const JobSpec &J, bool MeasureRss, SpanLog &Log) {
  LadderRow R;
  R.Name = J.Name;
  R.Level = J.Level;
  R.SourceBytes = J.BuggySource.size();
  uint64_t Id = NextJobId.fetch_add(1);
  SpanLog::Scope Root(Log, "job", Id);
  SourceManager SM("input.hj", J.BuggySource);
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Program *P;
  {
    SpanLog::Scope S(Log, "frontend.parse");
    Parser Parse(SM.buffer(), Ctx, Diags);
    P = Parse.parseProgram();
    R.ParseMs = S.stop();
  }
  {
    SpanLog::Scope S(Log, "sema");
    runSema(*P, Ctx, Diags);
    R.SemaMs = S.stop();
  }
  if (Diags.hasErrors())
    return R;
  const DetectOptions DO = pinnedDetectOptions();
  {
    SpanLog::Scope S(Log, "interp.run");
    ExecResult E = runProgram(*P, J.Exec);
    R.RunMs = S.stop();
    R.Work = E.TotalWork;
  }
  {
    Dpst D;
    DpstBuilder B(D);
    ExecOptions X = J.Exec;
    X.Monitor = &B;
    SpanLog::Scope S(Log, "dpst.build");
    runProgram(*P, X);
    R.DpstMs = S.stop();
    R.Nodes = D.numNodes();
  }
  if (MeasureRss) {
    // A separate, untimed build: returning freed memory to the system
    // first would charge page faults to the timed rung.
    SpanLog::Scope S(Log, "dpst.rss_probe");
    malloc_trim(0);
    double Rss0 = rssMb();
    Dpst D;
    DpstBuilder B(D);
    ExecOptions X = J.Exec;
    X.Monitor = &B;
    runProgram(*P, X);
    R.DpstRssMb = std::max(0.0, rssMb() - Rss0);
  }
  Detection Det;
  {
    SpanLog::Scope S(Log, "race.detect");
    Det = detectRaces(*P, DO, J.Exec);
    R.DetectMs = S.stop();
  }
  R.RawRaces = Det.Report.RawCount;
  R.Pairs = Det.Report.Pairs.size();
  R.ShadowBytes = Det.ShadowBytesUsed;
  trace::InputTrace T;
  {
    SpanLog::Scope S(Log, "trace.record");
    trace::RecorderMonitor Rec(T.Log);
    ExecOptions X = J.Exec;
    X.Monitor = &Rec;
    T.Exec = runProgram(*P, X);
    Rec.flush();
    R.RecordMs = S.stop();
  }
  R.Events = T.Log.size();
  R.LogBytes = T.Log.bytesReserved();
  {
    Detection Replayed;
    {
      SpanLog::Scope S(Log, "trace.replay");
      Replayed = detectRaces(*P, DO, T, trace::ReplayPlan());
      R.ReplayMs = S.stop();
    }
    if (Replayed.Report.Pairs.size() != R.Pairs)
      std::printf("warning: %s: replay found %zu pairs, fresh %zu\n",
                  J.Name.c_str(), Replayed.Report.Pairs.size(), R.Pairs);
  }
  T = trace::InputTrace();
  {
    std::vector<DepGroup> Groups;
    {
      SpanLog::Scope S(Log, "repair.depgroups");
      Groups = buildDepGroups(*Det.Tree, Det.Report.Pairs);
      R.DepGroupsMs = S.stop();
    }
    R.Groups = Groups.size();
    for (const DepGroup &G : Groups)
      R.MaxGroupNodes = std::max(R.MaxGroupNodes, G.Nodes.size());
    SpanLog::Scope S(Log, "repair.dp");
    for (const DepGroup &G : Groups)
      placeFinishes(G.Problem, [](uint32_t, uint32_t) { return true; });
    R.DpMs = S.stop();
  }
  Det = Detection();
  {
    RepairOptions Opts = pinnedRepairOptions(J.Exec);
    Opts.SM = &SM;
    SpanLog::Scope S(Log, "repair.total");
    RepairResult Res = repairProgram(*P, Ctx, Opts);
    R.RepairMs = S.stop();
    R.RepairDetectMs = Res.Stats.totalDetectMs();
    R.RepairPhaseMs = Res.Stats.totalRepairMs();
    R.Iterations = Res.Stats.Iterations;
    R.Finishes = Res.Stats.FinishesInserted;
  }
  {
    SpanLog::Scope S(Log, "ast.print");
    std::string Out = printProgram(*P);
    R.PrintMs = S.stop();
  }
  return R;
}

/// Fills each row's job time and unattributed remainder (the root span's
/// self time) from the recorded spans, matching rows to root spans in
/// order.
void attributeLadder(std::vector<LadderRow> &Rows, const SpanLog &Log) {
  std::vector<Span> S = Log.spans();
  std::vector<double> Self = SpanLog::selfMs(S);
  size_t Row = 0;
  for (size_t I = 0; I != S.size() && Row != Rows.size(); ++I)
    if (S[I].Parent == Span::NoParent) {
      Rows[Row].JobMs = S[I].ms();
      Rows[Row].UnattributedMs = Self[I];
      ++Row;
    }
}

struct LoopSpanStats {
  size_t Jobs = 0;
  double JobMs = 0;
  double UnattributedMs = 0;
  double MaxUnattributedMs = 0;
};

LoopSpanStats loopSpanStats(const SpanLog &Log) {
  LoopSpanStats L;
  std::vector<Span> S = Log.spans();
  std::vector<double> Self = SpanLog::selfMs(S);
  for (size_t I = 0; I != S.size(); ++I)
    if (S[I].Parent == Span::NoParent) {
      ++L.Jobs;
      L.JobMs += S[I].ms();
      L.UnattributedMs += Self[I];
      L.MaxUnattributedMs = std::max(L.MaxUnattributedMs, Self[I]);
    }
  return L;
}

std::vector<Metric> ladderMetrics(const Workload &W,
                                  const std::vector<LadderRow> &Rows) {
  // Rows at the first level (the workload's own inputs) give the totals.
  LadderRow T;
  double DpstRss = 0;
  for (const LadderRow &R : Rows) {
    if (R.Level != Rows.front().Level)
      continue;
    T.ParseMs += R.ParseMs;
    T.SemaMs += R.SemaMs;
    T.PrintMs += R.PrintMs;
    T.SourceBytes += R.SourceBytes;
    T.RunMs += R.RunMs;
    T.Work += R.Work;
    T.DpstMs += R.DpstMs;
    T.Nodes += R.Nodes;
    DpstRss = std::max(DpstRss, R.DpstRssMb);
    T.DetectMs += R.DetectMs;
    T.RawRaces += R.RawRaces;
    T.Pairs += R.Pairs;
    T.ShadowBytes += R.ShadowBytes;
    T.RecordMs += R.RecordMs;
    T.Events += R.Events;
    T.LogBytes += R.LogBytes;
    T.ReplayMs += R.ReplayMs;
    T.DepGroupsMs += R.DepGroupsMs;
    T.Groups += R.Groups;
    T.MaxGroupNodes = std::max(T.MaxGroupNodes, R.MaxGroupNodes);
    T.DpMs += R.DpMs;
    T.RepairMs += R.RepairMs;
    T.RepairDetectMs += R.RepairDetectMs;
    T.RepairPhaseMs += R.RepairPhaseMs;
    T.Iterations += R.Iterations;
    T.Finishes += R.Finishes;
    T.JobMs += R.JobMs;
    T.UnattributedMs += R.UnattributedMs;
  }
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };

  // Scaling exponents: per suite program over its ladder levels, the
  // steepest one reported; generated programs have no size knob, so one
  // fit runs across them.
  std::map<std::string, std::vector<const LadderRow *>> ByProgram;
  for (const LadderRow &R : Rows) {
    std::string Base = R.Name.substr(0, R.Name.find('@'));
    ByProgram[W.Kind == WorkloadKind::ManySmall ? "" : Base].push_back(&R);
  }
  auto Slope = [&](auto Time) {
    double Worst = -1e9;
    for (const auto &[Name, Rs] : ByProgram) {
      std::vector<std::pair<double, double>> Pts;
      for (const LadderRow *R : Rs)
        Pts.push_back({static_cast<double>(R->Work), Time(*R)});
      Worst = std::max(Worst, logLogSlope(Pts));
    }
    return ByProgram.empty() ? 0.0 : Worst;
  };

  double Bytes = static_cast<double>(T.SourceBytes);
  return {
      {"interp.run_ms", T.RunMs, "ms"},
      {"interp.work_units", static_cast<double>(T.Work), "count"},
      {"interp.ns_per_unit", Ratio(T.RunMs * 1e6, static_cast<double>(T.Work)),
       "ns"},
      {"interp.slope", Slope([](const LadderRow &R) { return R.RunMs; }),
       "log/log"},
      {"dpst.build_ms", T.dpstSelfMs(), "ms"},
      {"dpst.nodes", static_cast<double>(T.Nodes), "count"},
      {"dpst.ns_per_node",
       Ratio(T.dpstSelfMs() * 1e6, static_cast<double>(T.Nodes)), "ns"},
      {"dpst.rss_mb", DpstRss, "MB"},
      {"dpst.slope",
       Slope([](const LadderRow &R) { return R.dpstSelfMs(); }), "log/log"},
      {"race.detect_ms", T.detectSelfMs(), "ms"},
      {"race.overhead_x", Ratio(T.DetectMs, T.RunMs), "x"},
      {"race.raw_races", static_cast<double>(T.RawRaces), "count"},
      {"race.pairs", static_cast<double>(T.Pairs), "count"},
      {"race.shadow_bytes", static_cast<double>(T.ShadowBytes), "B"},
      {"race.slope",
       Slope([](const LadderRow &R) { return R.detectSelfMs(); }), "log/log"},
      {"trace.record_ms", T.recordSelfMs(), "ms"},
      {"trace.events", static_cast<double>(T.Events), "count"},
      {"trace.log_bytes", static_cast<double>(T.LogBytes), "B"},
      {"trace.replay_ms", T.ReplayMs, "ms"},
      {"trace.replay_ratio", Ratio(T.ReplayMs, T.DetectMs), "x"},
      {"trace.slope",
       Slope([](const LadderRow &R) { return R.recordSelfMs() + R.ReplayMs; }),
       "log/log"},
      {"repair.total_ms", T.RepairMs, "ms"},
      {"repair.depgroups_ms", T.DepGroupsMs, "ms"},
      {"repair.groups", static_cast<double>(T.Groups), "count"},
      {"repair.max_group_nodes", static_cast<double>(T.MaxGroupNodes),
       "count"},
      {"repair.dp_ms", T.DpMs, "ms"},
      {"repair.other_ms", T.RepairMs - T.RepairDetectMs - T.RepairPhaseMs,
       "ms"},
      {"repair.iterations", static_cast<double>(T.Iterations), "count"},
      {"repair.finishes", static_cast<double>(T.Finishes), "count"},
      {"repair.slope", Slope([](const LadderRow &R) { return R.RepairMs; }),
       "log/log"},
      {"frontend.parse_ms", T.ParseMs, "ms"},
      {"frontend.kb_per_s", Ratio(Bytes / 1024.0, T.ParseMs / 1000.0), "KiB/s"},
      {"sema.ms", T.SemaMs, "ms"},
      {"ast.print_ms", T.PrintMs, "ms"},
      {"bench.unattributed_ratio", Ratio(T.UnattributedMs, T.JobMs), "ratio"},
  };
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void printConfig(const Args &A, const Workload &W) {
  std::printf("config: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"quick\":%s,\"nproc\":%u,\"workers\":%u,"
              "\"compiler\":\"%s %s\",\"build_type\":\"%s\",\"backend\":"
              "\"espbags\",\"mode\":\"mrw\",\"replay\":true,\"constructs\":"
              "\"finish,future\",\"jobs\":%zu}\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace, A.Quick ? "true" : "false",
              std::thread::hardware_concurrency(), W.Workers,
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, W.Jobs.size());
}

void printResult(const Checked &C, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("metric %-26s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::string Out = "{\"correct\": ";
  Out += C.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(C.Attempted);
  Out += ", \"failed\": " + std::to_string(C.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    Out += (I ? ", \"" : "\"") + Ms[I].Name +
           "\": {\"value\": " + jsonNumber(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  refuseUnpinned();
  SetupConfig SC;
  if (!parseWorkload(A.Workload, SC.Kind))
    usage(("unknown workload " + A.Workload).c_str());
  SC.Seed = A.Seed;
  SC.Quick = A.Quick;
  SC.Workers = A.Workers;

  Timer SetupTimer;
  Workload W = setupWorkload(SC);
  double SetupSec = SetupTimer.elapsedSec();
  if (A.Tamper)
    W.Jobs.front().RefOutput += "tampered\n";
  printConfig(A, W);
  if (W.Kind == WorkloadKind::ManySmall)
    std::printf("many-small: %zu generated programs were not small and were "
                "passed over\n",
                W.Screened);

  if (!A.Trace) {
    // One part of the end-to-end measurement; perfbench/run.py runs several
    // in fresh processes and computes the metrics from their samples. The
    // measuring itself happens in a child forked after set-up, so the peak
    // resident size counts the workload and the inputs it holds, not
    // set-up's transient peaks (many-small's screening detections, say).
    std::fflush(stdout);
    malloc_trim(0);
    pid_t Child = fork();
    if (Child < 0) {
      std::perror("tdr_perfbench: fork");
      return 2;
    }
    if (Child > 0) {
      int Status = 0;
      if (waitpid(Child, &Status, 0) != Child)
        return 2;
      return WIFEXITED(Status) ? WEXITSTATUS(Status) : 2;
    }
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    // One pass of the `tdr races` path, halfway through the loop.
    size_t Sink = 0;
    std::vector<double> Races;
    LoopResult L = runEndToEndLoop(W, A, [&](double Spent) {
      if (Races.empty() && Spent >= A.Seconds / 2)
        Races = racesPass(W, Sink);
    });
    if (Races.empty())
      Races = racesPass(W, Sink);
    // Read before verification, whose threads get allocator arenas of
    // their own.
    double PeakRss = peakRssMb();
    Checked C = check(W, L);
    std::vector<std::vector<double>> ByJob(W.Jobs.size());
    for (size_t K = 0; K != L.JobIndex.size(); ++K)
      ByJob[L.JobIndex[K]].push_back(L.JobMs[K]);
    if (W.Kind != WorkloadKind::ManySmall)
      for (size_t J = 0; J != W.Jobs.size(); ++J)
        std::printf("job %-16s repair %.3f ms (median of %zu), races %.4f s\n",
                    W.Jobs[J].Name.c_str(), median(ByJob[J]),
                    ByJob[J].size(), Races[J]);
    std::printf("races report bytes: %zu; cpl_ratio over %zu jobs\n", Sink,
                C.CplJobs);
    printFailures(C);

    std::string Out = "part: {\"setup_s\": " + jsonNumber(SetupSec) +
                      ", \"timed_s\": " + jsonNumber(L.TimedSec) +
                      ", \"attempted\": " + std::to_string(C.Attempted) +
                      ", \"failed\": " + std::to_string(C.Failed) +
                      ", \"correct\": " + (C.Correct ? "true" : "false") +
                      ", \"cpl_ratio\": " + jsonNumber(C.CplRatio) +
                      ", \"peak_rss_mb\": " + jsonNumber(PeakRss) +
                      ", \"reasons\": {";
    bool First = true;
    for (const auto &[Reason, N] : C.Reasons) {
      Out += (First ? "" : ", ") + jsonString(Reason) + ": " +
             std::to_string(N);
      First = false;
    }
    Out += "}, \"races_s\": [";
    for (size_t J = 0; J != Races.size(); ++J)
      Out += (J ? ", " : "") + jsonNumber(Races[J]);
    Out += "], \"job_ms\": [";
    for (size_t J = 0; J != ByJob.size(); ++J) {
      Out += J ? ", [" : "[";
      for (size_t K = 0; K != ByJob[J].size(); ++K)
        Out += (K ? ", " : "") + jsonNumber(ByJob[J][K]);
      Out += "]";
    }
    Out += "]}";
    std::printf("%s\n", Out.c_str());
    return 0;
  }

  // The traced run: the same jobs without and with spans, then the ladder.
  SpanLog LoopLog(true);
  auto [Untraced, Traced] = runDecomposedLoops(W, A, LoopLog);
  LoopSpanStats LS = loopSpanStats(LoopLog);

  std::vector<unsigned> Levels =
      A.Quick ? std::vector<unsigned>{3, 4} : std::vector<unsigned>{0, 1, 2};
  std::vector<JobSpec> LJobs = ladderJobs(SC, Levels, A.Quick ? 16 : 128);
  SpanLog LadderLog(true);
  std::vector<LadderRow> Rows;
  for (const JobSpec &J : LJobs)
    Rows.push_back(runLadder(J, J.Level == Levels.front(), LadderLog));
  attributeLadder(Rows, LadderLog);

  for (const LadderRow &R : Rows)
    std::printf("ladder %-22s work %-11llu run %9.3f dpst %9.3f detect %9.3f "
                "record %9.3f replay %9.3f groups %8.3f dp %9.3f repair "
                "%9.3f ms; unattributed %.3f of %.3f ms\n",
                R.Name.c_str(), static_cast<unsigned long long>(R.Work),
                R.RunMs, R.dpstSelfMs(), R.detectSelfMs(), R.recordSelfMs(),
                R.ReplayMs, R.DepGroupsMs, R.DpMs, R.RepairMs,
                R.UnattributedMs, R.JobMs);
  std::printf("traced loop: %zu jobs, unattributed %.3f of %.3f ms "
              "(largest single job %.3f ms)\n",
              LS.Jobs, LS.UnattributedMs, LS.JobMs, LS.MaxUnattributedMs);

  // Both loops' outputs are verified.
  Checked C = check(W, Untraced);
  Checked CT = check(W, Traced);
  C.Attempted += CT.Attempted;
  C.Failed += CT.Failed;
  C.Correct = C.Correct && CT.Correct;
  for (const auto &[Reason, N] : CT.Reasons)
    C.Reasons[Reason] += N;
  printFailures(C);

  std::vector<Metric> Ms = ladderMetrics(W, Rows);
  Ms.push_back({"batch.busy_ratio",
                Untraced.WorkerSec > 0
                    ? Untraced.BusyMs / 1000.0 / Untraced.WorkerSec
                    : 0.0,
                "ratio"});
  Ms.push_back({"bench.trace_overhead_x",
                Untraced.jobsPerSec() > 0
                    ? Traced.jobsPerSec() / Untraced.jobsPerSec()
                    : 0.0,
                "x"});
  if (!A.TraceOut.empty()) {
    // Loop spans and ladder spans go to separate files.
    bool Ok = LoopLog.writeChromeTrace(A.TraceOut) &&
              LadderLog.writeChromeTrace(A.TraceOut + ".ladder.json");
    std::printf("trace: %s%s and %s.ladder.json\n", A.TraceOut.c_str(),
                Ok ? "" : " (write failed)", A.TraceOut.c_str());
  }
  printResult(C, Ms);
  return 0;
}
