//===- Oracle.h - Differential correctness oracle for fuzzing ----*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure predicate of the fuzz farm: runs one HJ-mini program
/// through ESP-bags (SRW and MRW) and the Theorem-1 oracle, fresh and
/// replayed, plus the repair loop, and reports any disagreement as a typed
/// Finding. This is the industrialized form of the loops in
/// backend_diff_test / shadow_diff_test / trace_replay_test — one call
/// answers "does the whole detection and repair stack agree with the
/// oracle on this program?", which makes it reusable as the fuzz driver's
/// oracle, the delta-debugging reducer's predicate, and the trophy
/// runner's regression check.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_FUZZ_ORACLE_H
#define TDR_FUZZ_ORACLE_H

#include "race/Detect.h"

#include <string>
#include <string_view>
#include <vector>

namespace tdr {
namespace fuzz {

/// What went wrong. Every kind names one cross-checked invariant of the
/// pipeline; a healthy tree produces none of them on any input.
enum class FindingKind : uint8_t {
  /// A generated program failed to parse or type-check (generator
  /// invariant: every emitted program is well-formed).
  ParseError,
  /// Interpretation or replay of a well-formed program failed.
  ExecError,
  /// ESP-bags disagrees with the Theorem-1 oracle on a fresh execution:
  /// MRW reports differ, or SRW reports a pair the oracle does not or
  /// misses every race of a program without futures or isolated sections
  /// (see agreesWithOracle).
  BackendMismatch,
  /// A replayed detection's report differs from the fresh report of the
  /// recorded execution.
  ReplayDivergence,
  /// A repair reported success but the repaired program is malformed,
  /// fails to execute, or still races.
  RepairNotConverged,
};

/// Stable kebab-case name ("backend-mismatch", ...) used in summaries,
/// trophy files, and CI logs.
const char *findingKindName(FindingKind K);

/// Parses a findingKindName spelling; returns false on anything else,
/// leaving \p Out untouched.
bool parseFindingKind(std::string_view Name, FindingKind &Out);

/// Which legs the oracle runs.
struct OracleConfig {
  /// Run the repair loop and require that a successful repair converges
  /// to a program the oracle finds race free.
  bool CheckRepair = true;
  /// Repair with the full construct vocabulary (finish, future, isolated)
  /// instead of the default allowlist.
  bool AllConstructs = false;
};

/// One invariant violation.
struct Finding {
  FindingKind Kind = FindingKind::BackendMismatch;
  /// The leg that diverged, e.g. "mrw/espbags/fresh" or "repair/verify".
  std::string Config;
  /// Human-readable summary.
  std::string Detail;
  /// Reference and divergent values (rendered report keys, outcomes, or
  /// diagnostics — whatever the kind compares).
  std::string Expected;
  std::string Actual;
};

/// Everything one oracle evaluation produced.
struct OracleOutcome {
  std::vector<Finding> Findings;
  unsigned DetectRuns = 0; ///< fresh detections performed
  unsigned ReplayRuns = 0; ///< replayed detections performed
  unsigned RepairRuns = 0; ///< full repair-loop runs performed

  bool clean() const { return Findings.empty(); }
};

/// Runs the full differential oracle over \p Source: the Theorem-1 oracle
/// fresh and replayed, ESP-bags in both modes fresh and replayed against
/// the same recorded event log, and (optionally) the repair loop end to
/// end.
OracleOutcome runOracle(const std::string &Source, const OracleConfig &C);

/// Reducer/trophy predicate: does \p Source still exhibit a finding of
/// kind \p K under \p C? (Any matching finding counts; the reducer pins
/// the kind, not the exact config, so a shrink that moves the divergence
/// between modes still reproduces.)
bool oracleFires(const std::string &Source, const OracleConfig &C,
                 FindingKind K);

} // namespace fuzz
} // namespace tdr

#endif // TDR_FUZZ_ORACLE_H
