//===- OracleDetector.h - DPST-based reference race detector -----*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An independent reference detector used to validate ESP-bags: it keeps
/// every reader and writer of every location but decides "may these two
/// steps run in parallel?" with the S-DPST structural criterion (Theorem 1,
/// from Raman et al. PLDI 2012) instead of bags. Slower — O(tree depth) per
/// query — but it shares only the S-DPST and the event stream with
/// ESP-bags: shadow state is a plain std::unordered_map and access lists
/// are std::vectors, so a bug in ESP-bags' paged shadow memory, small
/// vectors or bag bookkeeping cannot hide in both. Property tests and the
/// fuzz farm assert that this oracle and MRW ESP-bags report identical
/// race pair sets.
///
/// Futures and forces need no special handling here: the S-DPST records
/// which futures each step has joined, and mayHappenInParallel reads it.
/// Two isolated steps commute, so their pairs are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_ORACLEDETECTOR_H
#define TDR_RACE_ORACLEDETECTOR_H

#include "dpst/Dpst.h"
#include "race/RaceReport.h"

#include <unordered_map>
#include <vector>

namespace tdr {

/// MRW-style detector using Theorem-1 parallelism queries.
class OracleDetector : public ExecMonitor {
public:
  OracleDetector(Dpst &Tree, DpstBuilder &Builder)
      : Tree(Tree), Builder(Builder) {}

  void onRead(MemLoc L) override;
  void onWrite(MemLoc L) override;

  RaceReport takeReport() { return std::move(Report); }

private:
  struct Shadow {
    std::vector<DpstNode *> Writers;
    std::vector<DpstNode *> Readers;
  };

  void check(const std::vector<DpstNode *> &Prev, AccessKind PrevKind,
             DpstNode *Step, AccessKind CurKind, MemLoc L);

  Dpst &Tree;
  DpstBuilder &Builder;
  std::unordered_map<MemLoc, Shadow, MemLocHash> ShadowMem;
  RaceReport Report;
  /// Pair key -> index into Report.Pairs, so duplicate observations can
  /// upgrade the kept witness (see witnessPreferred).
  std::unordered_map<uint64_t, uint32_t> SeenPairs;
};

} // namespace tdr

#endif // TDR_RACE_ORACLEDETECTOR_H
