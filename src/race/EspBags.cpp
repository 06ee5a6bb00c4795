//===- EspBags.cpp --------------------------------------------------------===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//

#include "race/EspBags.h"

#include "obs/Metrics.h"

using namespace tdr;

EspBagsDetector::EspBagsDetector(Mode M, DpstBuilder &Builder)
    : M(M), Builder(Builder), CChecks(&obs::counter("espbags.checks")),
      CReads(&obs::counter("espbags.reads")),
      CWrites(&obs::counter("espbags.writes")),
      CRaw(&obs::counter("race.reports_raw")),
      CPairs(&obs::counter("race.pairs")) {
  // The root task's S-bag and the implicit root finish's P-bag.
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
  CurElem = TaskElems.back();
}

void EspBagsDetector::onAsyncEnter(const AsyncStmt *, const Stmt *) {
  CachedStep = nullptr;
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  CurElem = TaskElems.back();
}

void EspBagsDetector::onAsyncExit(const AsyncStmt *) {
  CachedStep = nullptr;
  uint32_t TaskElem = TaskElems.back();
  TaskElems.pop_back();
  CurElem = TaskElems.back();
  // The completed task's S-bag joins the P-bag of the innermost enclosing
  // finish: it is now parallel to everything the parent does until that
  // finish joins it.
  Bags.merge(FinishElems.back(), TaskElem, BagSet::Tag::P);
}

void EspBagsDetector::onFinishEnter(const FinishStmt *, const Stmt *) {
  CachedStep = nullptr;
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
}

void EspBagsDetector::onFinishExit(const FinishStmt *) {
  CachedStep = nullptr;
  uint32_t FinishElem = FinishElems.back();
  FinishElems.pop_back();
  // Everything the finish joined is now serialized before the parent task.
  Bags.merge(TaskElems.back(), FinishElem, BagSet::Tag::S);
}

void EspBagsDetector::onFutureEnter(const FutureStmt *, const Stmt *,
                                    uint32_t) {
  CachedStep = nullptr;
  SawFuture = true;
  // A future is an async (its body runs in parallel with the continuation
  // until joined) fused with an implicit finish over its initializer.
  TaskElems.push_back(Bags.makeSet(BagSet::Tag::S));
  CurElem = TaskElems.back();
  FinishElems.push_back(Bags.makeSet(BagSet::Tag::P));
}

void EspBagsDetector::onFutureExit(const FutureStmt *) {
  CachedStep = nullptr;
  // Implicit finish exit: anything the initializer spawned is serialized
  // behind the future task itself.
  uint32_t FinishElem = FinishElems.back();
  FinishElems.pop_back();
  Bags.merge(TaskElems.back(), FinishElem, BagSet::Tag::S);
  // Then, like an async, the future joins the enclosing finish's P-bag:
  // parallel to the continuation until forced or joined. The force edge is
  // NOT representable as a bag merge (the element is shared with the whole
  // P-bag), so recordRace confirms bag-positive pairs against the S-DPST
  // once futures are in play.
  uint32_t TaskElem = TaskElems.back();
  TaskElems.pop_back();
  CurElem = TaskElems.back();
  Bags.merge(FinishElems.back(), TaskElem, BagSet::Tag::P);
}

void EspBagsDetector::onForce(uint32_t) {
  // The builder closes the current step (accesses after the force carry
  // the enlarged forced-set); drop the cache so it is re-resolved.
  CachedStep = nullptr;
}

void EspBagsDetector::onIsolatedEnter(const IsolatedStmt *, const Stmt *) {
  CachedStep = nullptr;
}

void EspBagsDetector::onIsolatedExit(const IsolatedStmt *) {
  CachedStep = nullptr;
}

void EspBagsDetector::onScopeEnter(ScopeKind, const Stmt *, const BlockStmt *,
                                   const FuncDecl *) {
  // Scope boundaries close the builder's current step; drop the cache so
  // the next access re-resolves it.
  CachedStep = nullptr;
}

void EspBagsDetector::onScopeExit() { CachedStep = nullptr; }

void EspBagsDetector::recordRace(const Access &Prev, AccessKind PrevKind,
                                 DpstNode *CurStep, AccessKind CurKind,
                                 MemLoc L) {
  // Isolated steps commute under mutual exclusion; the shared S-DPST
  // carries the per-step flag. Suppressed observations bump no counters,
  // so ESP-bags and the oracle, applying the same check, stay
  // byte-identical.
  if (Dpst::bothIsolated(Prev.Step, CurStep))
    return;
  // With futures in play the bags over-approximate (a force join edge is
  // not a bag merge), so confirm against the S-DPST before recording.
  if (SawFuture && !Builder.tree().mayHappenInParallel(Prev.Step, CurStep))
    return;
  CRaw->inc();
  ++Report.RawCount;
  auto [It, Inserted] = SeenPairs.try_emplace(
      packRacePairKey(Prev.Step->id(), CurStep->id()),
      static_cast<uint32_t>(Report.Pairs.size()));
  if (!Inserted) {
    RacePair &Kept = Report.Pairs[It->second];
    if (witnessPreferred(Kept, L, PrevKind, CurKind)) {
      Kept.Loc = L;
      Kept.SrcKind = PrevKind;
      Kept.SnkKind = CurKind;
    }
    return;
  }
  CPairs->inc();
  RacePair R;
  R.Src = Prev.Step;
  R.Snk = CurStep;
  R.Loc = L;
  R.SrcKind = PrevKind;
  R.SnkKind = CurKind;
  Report.Pairs.push_back(R);
}

void EspBagsDetector::compactReaders(Shadow &S) {
  // Entries whose bags have merged share one union-find representative and
  // — since bags only ever merge — will be classified identically (S vs P)
  // against every future access. Keep the first entry per representative
  // as the surviving race witness for that task group.
  RootScratch.clear();
  uint32_t Kept = 0;
  for (uint32_t I = 0; I != S.Readers.size(); ++I) {
    uint32_t Root = Bags.find(S.Readers[I].Elem);
    bool Seen = false;
    for (uint32_t R : RootScratch)
      if (R == Root) {
        Seen = true;
        break;
      }
    if (Seen)
      continue;
    RootScratch.push_back(Root);
    S.Readers[Kept++] = S.Readers[I];
  }
  S.Readers.truncate(Kept);
  // Amortize: only re-compact once the list doubles past this point, so a
  // location with many live representatives is not rescanned per access.
  uint32_t Doubled = 2 * (Kept < CompactThreshold ? CompactThreshold : Kept);
  S.CompactLimit = Doubled;
}

void EspBagsDetector::onRead(MemLoc L) {
  CReads->inc();
  readSlot(Shadows.slot(L), curStep(), L);
}

void EspBagsDetector::onWrite(MemLoc L) {
  CWrites->inc();
  writeSlot(Shadows.slot(L), curStep(), L);
}

void EspBagsDetector::onReadRun(MemLoc L, uint64_t N) {
  CReads->inc(N);
  DpstNode *Step = curStep();
  Shadows.forRun(L, N,
                 [&](Shadow &S, MemLoc At) { readSlot(S, Step, At); });
}

void EspBagsDetector::onWriteRun(MemLoc L, uint64_t N) {
  CWrites->inc(N);
  DpstNode *Step = curStep();
  Shadows.forRun(L, N,
                 [&](Shadow &S, MemLoc At) { writeSlot(S, Step, At); });
}

void EspBagsDetector::readSlot(Shadow &S, DpstNode *Step, MemLoc L) {
  CChecks->inc(S.Writers.size());

  for (const Access &W : S.Writers)
    if (W.Step != Step && Bags.isP(W.Elem))
      recordRace(W, AccessKind::Write, Step, AccessKind::Read, L);

  if (M == Mode::SRW) {
    // Keep a single reader; replace it only when it is serialized with the
    // current step (a parallel reader is the more dangerous witness for
    // future writes).
    if (S.Readers.empty())
      S.Readers.push_back(Access{curTaskElem(), Step});
    else if (!Bags.isP(S.Readers[0].Elem))
      S.Readers[0] = Access{curTaskElem(), Step};
    return;
  }
  // MRW: track every reader, deduplicating per step (accesses between two
  // step boundaries come from one step, so checking the tail suffices).
  if (S.Readers.empty() || S.Readers.back().Step != Step)
    S.Readers.push_back(Access{curTaskElem(), Step});
  if (CompactThreshold &&
      S.Readers.size() >=
          (S.CompactLimit > CompactThreshold ? S.CompactLimit
                                             : CompactThreshold))
    compactReaders(S);
}

void EspBagsDetector::writeSlot(Shadow &S, DpstNode *Step, MemLoc L) {
  CChecks->inc(S.Writers.size() + S.Readers.size());

  for (const Access &W : S.Writers)
    if (W.Step != Step && Bags.isP(W.Elem))
      recordRace(W, AccessKind::Write, Step, AccessKind::Write, L);
  for (const Access &R : S.Readers)
    if (R.Step != Step && Bags.isP(R.Elem))
      recordRace(R, AccessKind::Read, Step, AccessKind::Write, L);

  if (M == Mode::SRW) {
    if (S.Writers.empty())
      S.Writers.push_back(Access{curTaskElem(), Step});
    else
      S.Writers[0] = Access{curTaskElem(), Step};
    return;
  }
  if (S.Writers.empty() || S.Writers.back().Step != Step)
    S.Writers.push_back(Access{curTaskElem(), Step});
}

RaceReport EspBagsDetector::takeReport() { return std::move(Report); }
