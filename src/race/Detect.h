//===- Detect.h - One-call race detection driver -----------------*- C++ -*-===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wires the sequential interpreter, the S-DPST builder, and a race
/// detector into the single "instrument and execute" stage of the tool
/// (paper Figure 6, first box).
///
/// One production detector answers the happens-before query: ESP-bags
/// (the paper's algorithm; see EspBags.h). One independent oracle
/// validates it: OracleDetector (see OracleDetector.h), which decides
/// parallelism with the S-DPST Theorem-1 criterion and shares no shadow
/// or bag code with ESP-bags.
///
/// TDR_BACKEND_CHECK=1 in the environment turns every detection into a
/// differential: the primary run's event stream is replayed through the
/// oracle (off the metrics books, so counter-exact tests are unaffected)
/// and the two reports must agree, mirroring the TDR_REPLAY_CHECK
/// mechanism for replayed-vs-fresh runs.
///
//===----------------------------------------------------------------------===//

#ifndef TDR_RACE_DETECT_H
#define TDR_RACE_DETECT_H

#include "interp/Interpreter.h"
#include "race/EspBags.h"
#include "trace/Replay.h"

#include <memory>
#include <string>
#include <string_view>

namespace tdr {

/// Fuses the S-DPST builder and a detector into ONE monitor: the
/// interpreter pays a single virtual dispatch per event, and the inner
/// builder/detector calls are devirtualized (statically qualified). This
/// is the detection fast path — when the caller supplies no extra monitor,
/// detectRaces hands this object to the interpreter directly instead of
/// routing every access through a MonitorPipeline fan-out.
template <typename DetectorT> class FusedDetectMonitor final : public ExecMonitor {
public:
  FusedDetectMonitor(DpstBuilder &B, DetectorT &D) : B(B), D(D) {}

  void onAsyncEnter(const AsyncStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onAsyncEnter(S, Owner);
    D.DetectorT::onAsyncEnter(S, Owner);
  }
  void onAsyncExit(const AsyncStmt *S) override {
    B.DpstBuilder::onAsyncExit(S);
    D.DetectorT::onAsyncExit(S);
  }
  void onFinishEnter(const FinishStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onFinishEnter(S, Owner);
    D.DetectorT::onFinishEnter(S, Owner);
  }
  void onFinishExit(const FinishStmt *S) override {
    B.DpstBuilder::onFinishExit(S);
    D.DetectorT::onFinishExit(S);
  }
  void onFutureEnter(const FutureStmt *S, const Stmt *Owner,
                     uint32_t Fid) override {
    B.DpstBuilder::onFutureEnter(S, Owner, Fid);
    D.DetectorT::onFutureEnter(S, Owner, Fid);
  }
  void onFutureExit(const FutureStmt *S) override {
    B.DpstBuilder::onFutureExit(S);
    D.DetectorT::onFutureExit(S);
  }
  void onForce(uint32_t Fid) override {
    B.DpstBuilder::onForce(Fid);
    D.DetectorT::onForce(Fid);
  }
  void onIsolatedEnter(const IsolatedStmt *S, const Stmt *Owner) override {
    B.DpstBuilder::onIsolatedEnter(S, Owner);
    D.DetectorT::onIsolatedEnter(S, Owner);
  }
  void onIsolatedExit(const IsolatedStmt *S) override {
    B.DpstBuilder::onIsolatedExit(S);
    D.DetectorT::onIsolatedExit(S);
  }
  void onScopeEnter(ScopeKind K, const Stmt *Owner, const BlockStmt *Body,
                    const FuncDecl *Callee) override {
    B.DpstBuilder::onScopeEnter(K, Owner, Body, Callee);
    D.DetectorT::onScopeEnter(K, Owner, Body, Callee);
  }
  void onScopeExit() override {
    B.DpstBuilder::onScopeExit();
    D.DetectorT::onScopeExit();
  }
  void onStepPoint(const Stmt *Owner) override {
    B.DpstBuilder::onStepPoint(Owner);
    D.DetectorT::onStepPoint(Owner);
  }
  void onWork(uint64_t Units) override {
    B.DpstBuilder::onWork(Units);
    D.DetectorT::onWork(Units);
  }
  // The builder ignores accesses (steps are created lazily by the
  // detector's currentStep() pull), so reads/writes go straight to the
  // detector. The batched run entry points forward statically as well, so
  // a detector's page-sweep fast path (see ShadowMemory::forRun) is
  // reached without any per-element virtual dispatch; detectors without an
  // override inherit the ExecMonitor unrolling default.
  void onRead(MemLoc L) override { D.DetectorT::onRead(L); }
  void onWrite(MemLoc L) override { D.DetectorT::onWrite(L); }
  void onReadRun(MemLoc L, uint64_t N) override {
    D.DetectorT::onReadRun(L, N);
  }
  void onWriteRun(MemLoc L, uint64_t N) override {
    D.DetectorT::onWriteRun(L, N);
  }

private:
  DpstBuilder &B;
  DetectorT &D;
};

/// ESP-bags is the only detector. The enum and the Backend fields below
/// stay only because perfbench/src/Workload.cpp assigns them.
enum class DetectBackend : uint8_t { EspBags };

/// TDR_BACKEND_CHECK in the environment (non-empty, not "0"): cross-check
/// every detection against the Theorem-1 oracle.
bool backendCheckEnv();

/// Per-run detection configuration. Mode picks the shadow-memory policy
/// (SRW/MRW, paper §4.1).
struct DetectOptions {
  EspBagsDetector::Mode Mode = EspBagsDetector::Mode::MRW;
  DetectBackend Backend = DetectBackend::EspBags; ///< unused; see above
};

/// Everything one detection run produces.
struct Detection {
  std::unique_ptr<Dpst> Tree; ///< the S-DPST of the execution
  RaceReport Report;          ///< detected races (steps point into Tree)
  ExecResult Exec;            ///< program outcome (output, errors, work)
  /// ESP-bags' shadow-store footprint (zero for oracle runs); published
  /// as the shadow.bytes_used / shadow.bytes_reserved gauges, so
  /// `tdr races/repair --metrics-json` reports both.
  size_t ShadowBytesUsed = 0;
  size_t ShadowBytesReserved = 0;

  bool ok() const { return Exec.Ok; }
};

/// Executes \p P sequentially with the given input, building the S-DPST
/// and detecting races with ESP-bags in the configured mode.
Detection detectRaces(const Program &P, const DetectOptions &Opts,
                      ExecOptions Exec = ExecOptions());

/// Mode-only convenience.
Detection detectRaces(const Program &P,
                      EspBagsDetector::Mode Mode = EspBagsDetector::Mode::MRW,
                      ExecOptions Exec = ExecOptions());

/// Like detectRaces but using the Theorem-1 oracle detector (slow;
/// validation only).
Detection detectRacesOracle(const Program &P, ExecOptions Exec = ExecOptions());

/// Log-backed detection: instead of interpreting, re-feeds the recorded
/// event stream in \p T through the builder + detector, remapped through
/// \p Plan (see trace/Replay.h) so the stream matches the current, edited
/// AST. Detection.Exec is the recorded outcome — valid because finish
/// insertion cannot change the sequential execution (serial elision).
Detection detectRaces(const Program &P, const DetectOptions &Opts,
                      const trace::InputTrace &T,
                      const trace::ReplayPlan &Plan);

/// Mode-only convenience for the log-backed overload.
Detection detectRaces(const Program &P, EspBagsDetector::Mode Mode,
                      const trace::InputTrace &T,
                      const trace::ReplayPlan &Plan);

/// Log-backed oracle detection (validation only).
Detection detectRacesOracle(const Program &P, const trace::InputTrace &T,
                            const trace::ReplayPlan &Plan);

/// Stable textual rendering of a report — step ids, locations, access
/// kinds, raw count — used for the byte-identical replayed-vs-fresh
/// comparison (TDR_REPLAY_CHECK) and the detector-vs-oracle comparison
/// (TDR_BACKEND_CHECK). Detector-agnostic: it reads only RaceReport, and
/// node ids are creation-order indices, so identical event streams render
/// identically across independent detection runs regardless of the
/// detector that found the races.
std::string renderRaceReportKey(const RaceReport &R);

/// The agreement an ESP-bags report \p Esp, found in \p Mode, owes the
/// Theorem-1 oracle's detection \p Oracle on the same event stream (node
/// ids are compared, so the two may come from different runs). MRW must
/// render byte-identically. SRW keeps one reader and one writer per
/// location, so it reports a subset of the oracle's racing step pairs; on
/// programs without futures or isolated sections it must still report a
/// race whenever the oracle does.
bool agreesWithOracle(EspBagsDetector::Mode Mode, const RaceReport &Esp,
                      const Detection &Oracle);

} // namespace tdr

#endif // TDR_RACE_DETECT_H
