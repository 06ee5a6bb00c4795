//===- Oracle.cpp - Differential correctness oracle for fuzzing -----------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "ast/AstContext.h"
#include "frontend/Parser.h"
#include "obs/Metrics.h"
#include "repair/RepairDriver.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringUtils.h"
#include "trace/EventLog.h"

#include <memory>

namespace tdr {
namespace fuzz {

const char *findingKindName(FindingKind K) {
  switch (K) {
  case FindingKind::ParseError:
    return "parse-error";
  case FindingKind::ExecError:
    return "exec-error";
  case FindingKind::BackendMismatch:
    return "backend-mismatch";
  case FindingKind::ReplayDivergence:
    return "replay-divergence";
  case FindingKind::RepairNotConverged:
    return "repair-not-converged";
  }
  return "unknown";
}

bool parseFindingKind(std::string_view Name, FindingKind &Out) {
  for (FindingKind K :
       {FindingKind::ParseError, FindingKind::ExecError,
        FindingKind::BackendMismatch, FindingKind::ReplayDivergence,
        FindingKind::RepairNotConverged}) {
    if (Name == findingKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

namespace {

/// A parsed-and-checked program plus everything that owns it.
struct Loaded {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticsEngine> Diags;
  std::unique_ptr<AstContext> Ctx;
  Program *Prog = nullptr;

  bool ok() const { return Prog && !Diags->hasErrors(); }
};

Loaded loadChecked(const std::string &Source) {
  Loaded L;
  L.SM = std::make_unique<SourceManager>("fuzz.hj", Source);
  L.Diags = std::make_unique<DiagnosticsEngine>();
  L.Ctx = std::make_unique<AstContext>();
  Parser P(L.SM->buffer(), *L.Ctx, *L.Diags);
  L.Prog = P.parseProgram();
  if (!L.Diags->hasErrors())
    runSema(*L.Prog, *L.Ctx, *L.Diags);
  return L;
}

const char *modeName(EspBagsDetector::Mode M) {
  return M == EspBagsDetector::Mode::SRW ? "srw" : "mrw";
}

void addFinding(OracleOutcome &O, FindingKind K, std::string Config,
                std::string Detail, std::string Expected = std::string(),
                std::string Actual = std::string()) {
  Finding F;
  F.Kind = K;
  F.Config = std::move(Config);
  F.Detail = std::move(Detail);
  F.Expected = std::move(Expected);
  F.Actual = std::move(Actual);
  O.Findings.push_back(std::move(F));
  obs::counter("fuzz.findings").inc();
}

/// Detection legs. The reference is the Theorem-1 oracle's fresh report,
/// recorded so every replayed leg consumes the same event stream. The
/// oracle replayed must reproduce it; ESP-bags fresh must agree with it in
/// each mode (agreesWithOracle); each ESP-bags mode replayed must reproduce
/// its own fresh report.
void runDetectionLegs(const Program &Prog, OracleOutcome &Out) {
  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  ExecOptions Exec;
  Exec.Monitor = &Recorder;
  Detection Ref = detectRacesOracle(Prog, std::move(Exec));
  Recorder.flush();
  ++Out.DetectRuns;
  if (!Ref.ok()) {
    addFinding(Out, FindingKind::ExecError, "oracle/fresh",
               "interpretation failed: " + Ref.Exec.Error);
    return;
  }
  T.Exec = Ref.Exec;
  std::string RefKey = renderRaceReportKey(Ref.Report);

  Detection Replayed = detectRacesOracle(Prog, T, trace::ReplayPlan());
  ++Out.ReplayRuns;
  std::string Key = renderRaceReportKey(Replayed.Report);
  if (Key != RefKey)
    addFinding(Out, FindingKind::ReplayDivergence, "oracle/replay",
               "replayed oracle report differs from the fresh one", RefKey,
               Key);

  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    const char *M = modeName(Mode);
    Detection Fresh = detectRaces(Prog, Mode);
    ++Out.DetectRuns;
    if (!Fresh.ok()) {
      addFinding(Out, FindingKind::ExecError,
                 strFormat("%s/espbags/fresh", M),
                 "interpretation failed: " + Fresh.Exec.Error);
      continue;
    }
    std::string FreshKey = renderRaceReportKey(Fresh.Report);
    if (!agreesWithOracle(Mode, Fresh.Report, Ref))
      addFinding(Out, FindingKind::BackendMismatch,
                 strFormat("%s/espbags/fresh", M),
                 strFormat("fresh %s espbags report disagrees with the oracle",
                           M),
                 RefKey, FreshKey);

    Detection D = detectRaces(Prog, Mode, T, trace::ReplayPlan());
    ++Out.ReplayRuns;
    if (!D.ok()) {
      addFinding(Out, FindingKind::ExecError,
                 strFormat("%s/espbags/replay", M),
                 "replay failed: " + D.Exec.Error);
      continue;
    }
    Key = renderRaceReportKey(D.Report);
    if (Key != FreshKey)
      addFinding(Out, FindingKind::ReplayDivergence,
                 strFormat("%s/espbags/replay", M),
                 strFormat("replayed %s espbags report differs from the "
                           "fresh one",
                           M),
                 FreshKey, Key);
  }
}

/// Repair leg: a successful repair must actually converge — the repaired
/// text re-parses and the oracle finds it race free. A failed repair is
/// acceptable; the iteration cap may legitimately run out.
void runRepairLeg(const std::string &Source, const OracleConfig &C,
                  OracleOutcome &Out) {
  RepairOptions Opts;
  Opts.Constructs = C.AllConstructs ? constructs::All : constructs::Default;
  std::string Text;
  RepairResult R = repairSource(Source, Text, Opts);
  ++Out.RepairRuns;
  if (!R.Success)
    return;
  Loaded L = loadChecked(Text);
  if (!L.ok()) {
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               "repaired program fails to parse or type-check",
               "well-formed program", L.Diags->render(*L.SM));
    return;
  }
  Detection D = detectRacesOracle(*L.Prog);
  ++Out.DetectRuns;
  if (!D.ok()) {
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               "repaired program fails to execute: " + D.Exec.Error);
    return;
  }
  if (!D.Report.Pairs.empty())
    addFinding(Out, FindingKind::RepairNotConverged, "repair/verify",
               strFormat("repaired program still has %zu racing pair(s)",
                         D.Report.Pairs.size()),
               "race-free report", renderRaceReportKey(D.Report));
}

} // namespace

OracleOutcome runOracle(const std::string &Source, const OracleConfig &C) {
  OracleOutcome Out;
  obs::counter("fuzz.programs").inc();
  Loaded L = loadChecked(Source);
  if (!L.ok()) {
    addFinding(Out, FindingKind::ParseError, "frontend",
               "program fails to parse or type-check", "well-formed program",
               L.Diags->render(*L.SM));
    return Out;
  }

  runDetectionLegs(*L.Prog, Out);
  if (C.CheckRepair)
    runRepairLeg(Source, C, Out);
  return Out;
}

bool oracleFires(const std::string &Source, const OracleConfig &C,
                 FindingKind K) {
  OracleOutcome Out = runOracle(Source, C);
  for (const Finding &F : Out.Findings)
    if (F.Kind == K)
      return true;
  return false;
}

} // namespace fuzz
} // namespace tdr
