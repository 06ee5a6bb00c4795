//===- Detect.cpp ---------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/Detect.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "race/OracleDetector.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <cstdlib>
#include <unordered_set>

using namespace tdr;

bool tdr::backendCheckEnv() {
  const char *V = std::getenv("TDR_BACKEND_CHECK");
  return V && *V && !(V[0] == '0' && V[1] == '\0');
}

namespace {

/// Publishes the per-run gauges a finished detection derives its stats
/// from (see RepairStats).
void publishDetection(const Detection &D) {
  obs::gauge("detect.dpst_nodes").set(static_cast<int64_t>(D.Tree->numNodes()));
  obs::gauge("detect.races_raw").set(static_cast<int64_t>(D.Report.RawCount));
  obs::gauge("detect.race_pairs")
      .set(static_cast<int64_t>(D.Report.Pairs.size()));
  obs::gauge("shadow.bytes_used")
      .set(static_cast<int64_t>(D.ShadowBytesUsed));
  obs::gauge("shadow.bytes_reserved")
      .set(static_cast<int64_t>(D.ShadowBytesReserved));
}

/// Feeds \p Fused (the builder plus a detector) one execution and returns
/// its outcome: \p P under the interpreter when \p T is null, else the
/// recorded stream of \p T remapped through \p Plan.
/// Fast path: with no caller monitor the interpreter talks to the fused
/// builder+detector directly — one virtual dispatch per event. A
/// caller-supplied monitor keeps observing the instrumented execution; it
/// runs ahead of the builder/detector so it sees events untouched.
ExecResult feed(const Program &P, ExecMonitor &Fused, ExecOptions Exec,
                const trace::InputTrace *T, const trace::ReplayPlan *Plan) {
  if (T) {
    Timer ReplayTimer;
    trace::replayEvents(T->Log, *Plan, Fused);
    obs::histogram("trace.replay_ms").observe(ReplayTimer.elapsedMs());
    return T->Exec;
  }
  MonitorPipeline Pipeline;
  if (Exec.Monitor) {
    Pipeline.add(Exec.Monitor);
    Pipeline.add(&Fused);
    Exec.Monitor = &Pipeline;
  } else {
    Exec.Monitor = &Fused;
  }
  return runProgram(P, std::move(Exec));
}

/// One ESP-bags detection: live when \p T is null, else replayed from
/// \p T through \p Plan.
Detection espBagsDetect(const Program &P, EspBagsDetector::Mode Mode,
                        ExecOptions Exec, const trace::InputTrace *T,
                        const trace::ReplayPlan *Plan) {
  Detection D;
  D.Tree = std::make_unique<Dpst>();
  DpstBuilder Builder(*D.Tree);
  EspBagsDetector Detector(Mode, Builder);
  FusedDetectMonitor<EspBagsDetector> Fused(Builder, Detector);
  D.Exec = feed(P, Fused, std::move(Exec), T, Plan);
  D.Report = Detector.takeReport();
  D.ShadowBytesUsed = Detector.shadowBytesUsed();
  D.ShadowBytesReserved = Detector.shadowBytesReserved();
  return D;
}

/// One oracle detection: live when \p T is null, else replayed.
Detection oracleDetect(const Program &P, ExecOptions Exec,
                       const trace::InputTrace *T,
                       const trace::ReplayPlan *Plan) {
  Detection D;
  D.Tree = std::make_unique<Dpst>();
  DpstBuilder Builder(*D.Tree);
  OracleDetector Detector(*D.Tree, Builder);
  FusedDetectMonitor<OracleDetector> Fused(Builder, Detector);
  D.Exec = feed(P, Fused, std::move(Exec), T, Plan);
  D.Report = Detector.takeReport();
  return D;
}

/// The TDR_BACKEND_CHECK differential: replays the primary run's event
/// stream through the Theorem-1 oracle; the two reports must agree in the
/// sense of agreesWithOracle.
/// The oracle run executes under a throwaway metrics registry, so tests
/// asserting exact counter values (detect.runs, espbags.*) see the same
/// numbers with and without the check — only the verdict escapes. A
/// mismatch fails the detection the way a run-time error would, so every
/// caller (repair loop, CLI, tests) surfaces it.
void crossCheckOracle(const Program &P, Detection &D,
                      EspBagsDetector::Mode Mode,
                      const trace::InputTrace &T,
                      const trace::ReplayPlan &Plan) {
  obs::ScopedSpan Span(obs::phase::DetectBackendCheck);
  obs::counter("detect.backend_checks").inc();
  bool Agree = true;
  {
    obs::MetricsRegistry Scratch;
    obs::ScopedMetrics Scoped(Scratch);
    Detection O = oracleDetect(P, ExecOptions(), &T, &Plan);
    Agree = agreesWithOracle(Mode, D.Report, O);
  }
  if (Agree)
    return;
  D.Exec.Ok = false;
  D.Exec.Error = "oracle differential mismatch: espbags and the Theorem-1 "
                 "oracle disagree on the race report";
}

} // namespace

Detection tdr::detectRaces(const Program &P, const DetectOptions &Opts,
                           ExecOptions Exec) {
  obs::ScopedSpan Span(obs::phase::Detect);
  obs::counter("detect.runs").inc();
  if (!backendCheckEnv()) {
    Detection D = espBagsDetect(P, Opts.Mode, std::move(Exec), nullptr,
                                nullptr);
    publishDetection(D);
    return D;
  }
  // Oracle check on a live run: record the event stream alongside the
  // detection so the oracle replays the exact same events (an empty plan
  // re-emits the log verbatim).
  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  MonitorPipeline Pipeline;
  if (Exec.Monitor) {
    Pipeline.add(Exec.Monitor);
    Pipeline.add(&Recorder);
    Exec.Monitor = &Pipeline;
  } else {
    Exec.Monitor = &Recorder;
  }
  Detection D = espBagsDetect(P, Opts.Mode, std::move(Exec), nullptr, nullptr);
  Recorder.flush();
  T.Exec = D.Exec;
  if (D.Exec.Ok)
    crossCheckOracle(P, D, Opts.Mode, T, trace::ReplayPlan());
  publishDetection(D);
  return D;
}

Detection tdr::detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                           ExecOptions Exec) {
  DetectOptions Opts;
  Opts.Mode = Mode;
  return detectRaces(P, Opts, std::move(Exec));
}

Detection tdr::detectRaces(const Program &P, const DetectOptions &Opts,
                           const trace::InputTrace &T,
                           const trace::ReplayPlan &Plan) {
  obs::ScopedSpan Span(obs::phase::DetectReplay);
  obs::counter("detect.runs").inc();
  obs::counter("detect.replays").inc();
  Detection D = espBagsDetect(P, Opts.Mode, ExecOptions(), &T, &Plan);
  if (D.Exec.Ok && backendCheckEnv())
    crossCheckOracle(P, D, Opts.Mode, T, Plan);
  publishDetection(D);
  return D;
}

Detection tdr::detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                           const trace::InputTrace &T,
                           const trace::ReplayPlan &Plan) {
  DetectOptions Opts;
  Opts.Mode = Mode;
  return detectRaces(P, Opts, T, Plan);
}

Detection tdr::detectRacesOracle(const Program &P, const trace::InputTrace &T,
                                 const trace::ReplayPlan &Plan) {
  obs::ScopedSpan Span(obs::phase::DetectOracleReplay);
  obs::counter("detect.replays").inc();
  Detection D = oracleDetect(P, ExecOptions(), &T, &Plan);
  publishDetection(D);
  return D;
}

Detection tdr::detectRacesOracle(const Program &P, ExecOptions Exec) {
  obs::ScopedSpan Span(obs::phase::DetectOracle);
  Detection D = oracleDetect(P, std::move(Exec), nullptr, nullptr);
  publishDetection(D);
  return D;
}

std::string tdr::renderRaceReportKey(const RaceReport &R) {
  std::string Out = strFormat("raw=%llu\n",
                              static_cast<unsigned long long>(R.RawCount));
  for (const RacePair &P : R.Pairs)
    Out += strFormat("src=%u snk=%u loc=%u:%u:%lld kinds=%u%u\n", P.Src->id(),
                     P.Snk->id(), static_cast<unsigned>(P.Loc.K), P.Loc.Id,
                     static_cast<long long>(P.Loc.Index),
                     static_cast<unsigned>(P.SrcKind),
                     static_cast<unsigned>(P.SnkKind));
  return Out;
}

namespace {

/// True when the S-DPST has a future node or an isolated step. SRW's
/// single reader and writer per location keep a witness of some race
/// whenever one exists only on the remaining, series-parallel programs: a
/// force join is invisible to the bags that decide which reader to keep,
/// and an isolated write suppressed against a parallel isolated write
/// evicts it from the writer slot unreported.
bool hasFuturesOrIsolated(const Dpst &T) {
  std::vector<const DpstNode *> Work{T.root()};
  while (!Work.empty()) {
    const DpstNode *N = Work.back();
    Work.pop_back();
    if (N->kind() == DpstKind::Future || N->isIsolated())
      return true;
    Work.insert(Work.end(), N->children().begin(), N->children().end());
  }
  return false;
}

} // namespace

bool tdr::agreesWithOracle(EspBagsDetector::Mode Mode, const RaceReport &Esp,
                           const Detection &Oracle) {
  const RaceReport &Ref = Oracle.Report;
  if (Mode == EspBagsDetector::Mode::MRW)
    return renderRaceReportKey(Esp) == renderRaceReportKey(Ref);
  if (Esp.Pairs.empty() && !Ref.Pairs.empty() &&
      !hasFuturesOrIsolated(*Oracle.Tree))
    return false;
  std::unordered_set<uint64_t> RefPairs;
  for (const RacePair &R : Ref.Pairs)
    RefPairs.insert(packRacePairKey(R.Src->id(), R.Snk->id()));
  for (const RacePair &R : Esp.Pairs)
    if (!RefPairs.count(packRacePairKey(R.Src->id(), R.Snk->id())))
      return false;
  return true;
}
