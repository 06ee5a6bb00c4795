//===- MultiInput.cpp -----------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "repair/MultiInput.h"

#include "ast/Transforms.h"
#include "support/StringUtils.h"

#include <cstdlib>
#include <unordered_map>

using namespace tdr;

namespace {

/// Same escape hatch the single-input driver honors (see RepairDriver.cpp).
bool replayCheckEnv() {
  const char *V = std::getenv("TDR_REPLAY_CHECK");
  return V && *V && !(V[0] == '0' && V[1] == '\0');
}

} // namespace

MultiRepairResult
tdr::repairProgramForInputs(Program &P, AstContext &Ctx,
                            const std::vector<ExecOptions> &Inputs,
                            EspBagsDetector::Mode Mode,
                            trace::TraceStore *Store, bool UseReplay) {
  MultiRepairResult R;
  DetectOptions Detect;
  Detect.Mode = Mode;
  // One trace store for the whole session: entry I holds input I's recorded
  // stream and the edit map accumulated against it. Edits made while
  // repairing input J broadcast into every recorded entry, so input I's
  // log replays correctly against the grown finish set.
  trace::TraceStore LocalStore;
  trace::TraceStore &S = Store ? *Store : LocalStore;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    RepairOptions Opts;
    Opts.Mode = Mode;
    Opts.Exec = Inputs[I];
    Opts.UseReplay = UseReplay;
    Opts.Store = &S;
    Opts.InputIndex = I;
    RepairResult One = repairProgram(P, Ctx, Opts);
    R.IterationsPerInput.push_back(One.Stats.Iterations);
    if (!One.Success) {
      R.Error = strFormat("input %zu: %s", I, One.Error.c_str());
      return R;
    }
    if (One.Stats.FinishesInserted) {
      R.FinishesInserted += One.Stats.FinishesInserted;
      R.InputsThatContributed.push_back(I);
    }
  }

  // Final verification: re-detect on every input against the finished
  // program. The per-input loop above proves each input race free *at the
  // time it was processed*; this pass proves the conjunction holds for the
  // final finish set and names the offending input when it does not.
  // Every input was recorded by the loop above, so this whole pass replays
  // — zero fresh interpretations.
  const bool Check = replayCheckEnv();
  for (size_t I = 0; I != Inputs.size(); ++I) {
    Detection D;
    const trace::TraceEntry *Entry = S.find(I);
    if (UseReplay && Entry && Entry->Recorded && Entry->Trace.Exec.Ok) {
      trace::ReplayPlan Plan = trace::buildReplayPlan(P, Entry->Edits);
      D = detectRaces(P, Detect, Entry->Trace, Plan);
      if (Check) {
        ExecOptions Fresh = Inputs[I];
        Fresh.Monitor = nullptr;
        Detection FD = detectRaces(P, Detect, std::move(Fresh));
        if (renderRaceReportKey(D.Report) != renderRaceReportKey(FD.Report)) {
          R.FailedVerifyInput = I;
          R.Error = strFormat(
              "verification: replay/fresh detection mismatch for input %zu", I);
          return R;
        }
      }
    } else {
      D = detectRaces(P, Detect, Inputs[I]);
    }
    if (!D.ok()) {
      R.FailedVerifyInput = I;
      R.Error = strFormat("verification: input %zu failed at run time: %s", I,
                          D.Exec.Error.c_str());
      return R;
    }
    if (!D.Report.Pairs.empty()) {
      R.FailedVerifyInput = I;
      R.Error = strFormat("verification: input %zu still has %zu racing "
                          "pair(s) after repair",
                          I, D.Report.Pairs.size());
      return R;
    }
  }
  R.FinalVerified = true;
  R.Success = true;
  return R;
}

namespace {

/// Counts dynamic async instances per static site.
class AsyncCounter : public ExecMonitor {
public:
  void onAsyncEnter(const AsyncStmt *S, const Stmt *) override {
    ++Counts[S];
  }
  std::unordered_map<const AsyncStmt *, uint64_t> Counts;
};

} // namespace

CoverageReport tdr::analyzeTestCoverage(Program &P,
                                        const std::vector<ExecOptions> &Inputs) {
  return analyzeTestCoverage(P, Inputs, nullptr);
}

CoverageReport tdr::analyzeTestCoverage(Program &P,
                                        const std::vector<ExecOptions> &Inputs,
                                        const trace::TraceStore *Store) {
  CoverageReport Report;
  std::vector<AsyncStmt *> Sites = collectAsyncs(P);
  for (AsyncStmt *S : Sites) {
    AsyncSiteCoverage C;
    C.Site = S;
    C.Loc = S->loc();
    C.InstancesPerInput.assign(Inputs.size(), 0);
    Report.Sites.push_back(std::move(C));
  }

  for (size_t I = 0; I != Inputs.size(); ++I) {
    std::unordered_map<const AsyncStmt *, uint64_t> Counts;
    const trace::TraceEntry *Entry = Store ? Store->find(I) : nullptr;
    if (Entry && Entry->Recorded) {
      // A recorded input was already executed once — tally its async
      // instances from the log instead of re-running. The count is valid
      // for the current (possibly repaired) AST because finish insertion
      // never changes how often an async spawns (serial elision), and the
      // coverage sites are the original async statements.
      if (!Entry->Trace.Exec.Ok) {
        Report.FailedInputs.push_back({I, Entry->Trace.Exec.Error});
        continue;
      }
      Entry->Trace.Log.forEach([&](const trace::Event &E) {
        if (E.K == trace::EvKind::AsyncEnter)
          ++Counts[static_cast<const AsyncStmt *>(E.P0)];
      });
    } else {
      AsyncCounter Counter;
      ExecOptions Opts = Inputs[I];
      Opts.Monitor = &Counter;
      ExecResult R = runProgram(P, Opts);
      if (!R.Ok) {
        // A crashing input exercises nothing reliably — record it so
        // callers can distinguish "ran and spawned nothing" from "never
        // ran".
        Report.FailedInputs.push_back({I, R.Error});
        continue;
      }
      Counts = std::move(Counter.Counts);
    }
    for (AsyncSiteCoverage &C : Report.Sites) {
      auto It = Counts.find(C.Site);
      if (It != Counts.end())
        C.InstancesPerInput[I] = It->second;
    }
  }

  for (const AsyncSiteCoverage &C : Report.Sites)
    if (C.exercised())
      ++Report.NumExercised;
    else
      ++Report.NumUnexercised;
  return Report;
}
