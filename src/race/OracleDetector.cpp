//===- OracleDetector.cpp -------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/OracleDetector.h"

using namespace tdr;

void OracleDetector::check(const std::vector<DpstNode *> &Prev,
                           AccessKind PrevKind, DpstNode *Step,
                           AccessKind CurKind, MemLoc L) {
  for (DpstNode *P : Prev) {
    if (P == Step || !Tree.mayHappenInParallel(P, Step))
      continue;
    // Isolated steps commute under mutual exclusion even when parallel.
    if (Dpst::bothIsolated(P, Step))
      continue;
    ++Report.RawCount;
    auto [It, Inserted] =
        SeenPairs.try_emplace(packRacePairKey(P->id(), Step->id()),
                              static_cast<uint32_t>(Report.Pairs.size()));
    if (!Inserted) {
      RacePair &Kept = Report.Pairs[It->second];
      if (witnessPreferred(Kept, L, PrevKind, CurKind)) {
        Kept.Loc = L;
        Kept.SrcKind = PrevKind;
        Kept.SnkKind = CurKind;
      }
      continue;
    }
    RacePair R;
    R.Src = P;
    R.Snk = Step;
    R.Loc = L;
    R.SrcKind = PrevKind;
    R.SnkKind = CurKind;
    Report.Pairs.push_back(R);
  }
}

void OracleDetector::onRead(MemLoc L) {
  DpstNode *Step = Builder.currentStep();
  Shadow &S = ShadowMem[L];
  check(S.Writers, AccessKind::Write, Step, AccessKind::Read, L);
  if (S.Readers.empty() || S.Readers.back() != Step)
    S.Readers.push_back(Step);
}

void OracleDetector::onWrite(MemLoc L) {
  DpstNode *Step = Builder.currentStep();
  Shadow &S = ShadowMem[L];
  check(S.Writers, AccessKind::Write, Step, AccessKind::Write, L);
  check(S.Readers, AccessKind::Read, Step, AccessKind::Write, L);
  if (S.Writers.empty() || S.Writers.back() != Step)
    S.Writers.push_back(Step);
}
