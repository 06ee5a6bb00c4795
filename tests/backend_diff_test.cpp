//===- backend_diff_test.cpp - ESP-bags vs Theorem-1 oracle differential --===//
//
// Part of the tdr project (PLDI 2014 race-repair reproduction).
//
// MRW ESP-bags must be report-identical to the independent Theorem-1
// oracle (OracleDetector): for every program and every feed (fresh
// interpretation or trace replay), the two must produce the IDENTICAL
// RaceReport. SRW ESP-bags must report only pairs the oracle reports, and
// on programs without futures or isolated sections at least one whenever
// the oracle reports any (agreesWithOracle). That is the property the
// TDR_BACKEND_CHECK differential gates CI on. These tests check it on
// random programs (plain and with futures, isolated and forasync), on
// replayed streams, through the repair loop end to end, and cover the
// check's plumbing.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "obs/Metrics.h"
#include "race/Detect.h"
#include "repair/RepairDriver.h"
#include "trace/EventLog.h"

#include <cstdlib>

using namespace tdr;
using namespace tdr::test;

namespace {

/// Scoped environment variable: sets on construction, restores the prior
/// value (or unsets) on destruction.
class EnvVar {
public:
  EnvVar(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      Saved = Old;
      Had = true;
    }
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~EnvVar() {
    if (Had)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::string Saved;
  bool Had = false;
};

const char *RacySource = R"(
func work(a: int[], i: int) {
  a[i] = a[i] + 1;
  a[0] = a[0] + i;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[n + 1];
  for (var i: int = 1; i <= n; i = i + 1) {
    async work(a, i);
  }
  print(a[0]);
}
)";

//===----------------------------------------------------------------------===//
// Differential: ESP-bags == oracle, random programs
//===----------------------------------------------------------------------===//

class DetectorMatchesOracle : public ::testing::TestWithParam<uint64_t> {};

/// Fresh ESP-bags in both modes against the fresh oracle on one program.
void checkFresh(const std::string &Src) {
  ParsedProgram P = parseAndCheck(Src);
  ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;
  Detection Oracle = detectRacesOracle(*P.Prog);
  ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error << "\n" << Src;
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    Detection Esp = detectRaces(*P.Prog, Mode);
    ASSERT_TRUE(Esp.ok()) << Esp.Exec.Error << "\n" << Src;
    EXPECT_TRUE(agreesWithOracle(Mode, Esp.Report, Oracle)) << Src;
  }
}

TEST_P(DetectorMatchesOracle, FreshReports) {
  Rng SeedGen(GetParam());
  for (int Trial = 0; Trial != 25; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    checkFresh(Gen.generate());
  }
}

TEST_P(DetectorMatchesOracle, ConstructProgramReports) {
  // Future/force joins, isolated sections, and lowered forasync loops all
  // flow through the same event stream, so the two must still agree.
  Rng SeedGen(GetParam() ^ 0x9e3779b9);
  for (int Trial = 0; Trial != 15; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableConstructs();
    checkFresh(Gen.generate());
  }
}

TEST_P(DetectorMatchesOracle, ReplayedReports) {
  Rng SeedGen(GetParam() ^ 0x5bd1e995);
  for (int Trial = 0; Trial != 15; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    if (Trial & 1)
      Gen.enableConstructs();
    std::string Src = Gen.generate();
    ParsedProgram P = parseAndCheck(Src);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Src;

    // Record the oracle's fresh run once, then feed the identical stream
    // to the oracle and to ESP-bags in both modes (empty plan = verbatim
    // re-emission).
    trace::InputTrace T;
    trace::RecorderMonitor Recorder(T.Log);
    ExecOptions Exec;
    Exec.Monitor = &Recorder;
    Detection Fresh = detectRacesOracle(*P.Prog, std::move(Exec));
    ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error << "\n" << Src;
    Recorder.flush();
    T.Exec = Fresh.Exec;

    Detection Oracle = detectRacesOracle(*P.Prog, T, trace::ReplayPlan());
    EXPECT_EQ(renderRaceReportKey(Oracle.Report),
              renderRaceReportKey(Fresh.Report))
        << Src;
    for (EspBagsDetector::Mode Mode :
         {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
      Detection Esp = detectRaces(*P.Prog, Mode, T, trace::ReplayPlan());
      ASSERT_TRUE(Esp.ok()) << Esp.Exec.Error << "\n" << Src;
      EXPECT_TRUE(agreesWithOracle(Mode, Esp.Report, Fresh)) << Src;
    }
  }
}

TEST_P(DetectorMatchesOracle, RepairedProgramsAreOracleRaceFree) {
  // Construct-generator programs through the full repair loop with the
  // whole construct vocabulary enabled: a successful repair must leave a
  // program the oracle finds race free.
  Rng SeedGen(GetParam() ^ 0x85ebca6b);
  for (int Trial = 0; Trial != 6; ++Trial) {
    RandomProgramGen Gen(SeedGen.next());
    Gen.enableConstructs();
    std::string Src = Gen.generate();

    RepairOptions Opts;
    Opts.Constructs = constructs::All;
    std::string Out;
    RepairResult R = repairSource(Src, Out, Opts);
    if (!R.Success)
      continue;
    ParsedProgram P = parseAndCheck(Out);
    ASSERT_TRUE(P.ok()) << P.errors() << "\n" << Out;
    Detection Oracle = detectRacesOracle(*P.Prog);
    ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error << "\n" << Out;
    EXPECT_TRUE(Oracle.Report.Pairs.empty()) << Src << "\n->\n" << Out;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorMatchesOracle,
                         ::testing::Values(111u, 222u, 333u, 444u));

TEST(StreamEnds, RacePairAtBothEndsIsFound) {
  // The only race pair sits at the two ENDS of the event stream: the
  // first and last async both write a[0], with ~150 non-conflicting
  // asyncs between them.
  const char *Split = R"(
func touch(a: int[], i: int) {
  a[i] = a[i] + 1;
}

func main() {
  var n: int = arg(0);
  var a: int[] = new int[n + 1];
  async touch(a, 0);
  for (var i: int = 1; i < n; i = i + 1) {
    async touch(a, i);
  }
  async touch(a, 0);
  print(0);
}
)";
  ParsedProgram P = parseAndCheck(Split);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {150};
  Detection Oracle = detectRacesOracle(*P.Prog, Exec);
  ASSERT_EQ(Oracle.Report.Pairs.size(), 1u);
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    Detection Esp = detectRaces(*P.Prog, Mode, Exec);
    ASSERT_TRUE(Esp.ok()) << Esp.Exec.Error;
    EXPECT_TRUE(agreesWithOracle(Mode, Esp.Report, Oracle)) << Split;
  }
}

TEST(AgreementRule, SrwMustFindARaceOnSeriesParallelPrograms) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {5};
  Detection Oracle = detectRacesOracle(*P.Prog, Exec);
  ASSERT_TRUE(Oracle.ok()) << Oracle.Exec.Error;
  ASSERT_FALSE(Oracle.Report.Pairs.empty());
  Detection Srw = detectRaces(*P.Prog, EspBagsDetector::Mode::SRW, Exec);
  ASSERT_TRUE(Srw.ok()) << Srw.Exec.Error;
  EXPECT_TRUE(
      agreesWithOracle(EspBagsDetector::Mode::SRW, Srw.Report, Oracle));
  // A subset of the oracle's pairs, but not the empty one: an SRW report
  // that lost every race of an async/finish program disagrees.
  EXPECT_FALSE(
      agreesWithOracle(EspBagsDetector::Mode::SRW, RaceReport(), Oracle));
}

//===----------------------------------------------------------------------===//
// TDR_BACKEND_CHECK: every detection is cross-checked against the oracle
//===----------------------------------------------------------------------===//

TEST(BackendCheck, FreshDetectionIsCrossChecked) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {5};

  EnvVar E("TDR_BACKEND_CHECK", "1");
  obs::MetricsRegistry Reg;
  obs::ScopedMetrics Scope(Reg);
  Detection D =
      detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, std::move(Exec));
  ASSERT_TRUE(D.ok()) << D.Exec.Error;
  EXPECT_GT(D.Report.Pairs.size(), 0u);
  EXPECT_EQ(Reg.counterValue("detect.backend_checks"), 1u);
  // The oracle run stays off the books: one detection run, and the
  // oracle's parallelism queries did not land in this registry.
  EXPECT_EQ(Reg.counterValue("detect.runs"), 1u);
  EXPECT_EQ(Reg.counterValue("detect.replays"), 0u);
}

TEST(BackendCheck, ReplayedDetectionIsCrossChecked) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();

  trace::InputTrace T;
  trace::RecorderMonitor Recorder(T.Log);
  ExecOptions Exec;
  Exec.Args = {5};
  Exec.Monitor = &Recorder;
  Detection Fresh =
      detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, std::move(Exec));
  ASSERT_TRUE(Fresh.ok()) << Fresh.Exec.Error;
  Recorder.flush();
  T.Exec = Fresh.Exec;

  EnvVar E("TDR_BACKEND_CHECK", "1");
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    Detection D = detectRaces(*P.Prog, Mode, T, trace::ReplayPlan());
    ASSERT_TRUE(D.ok()) << D.Exec.Error;
    EXPECT_EQ(Reg.counterValue("detect.backend_checks"), 1u);
    EXPECT_EQ(Reg.counterValue("detect.runs"), 1u);
    EXPECT_EQ(Reg.counterValue("detect.replays"), 1u);
  }
}

TEST(BackendCheck, ZeroAndUnsetDisableTheCheck) {
  ParsedProgram P = parseAndCheck(RacySource);
  ASSERT_TRUE(P.ok()) << P.errors();
  ExecOptions Exec;
  Exec.Args = {3};
  for (const char *Off : {static_cast<const char *>(nullptr), "0"}) {
    EnvVar E("TDR_BACKEND_CHECK", Off);
    EXPECT_FALSE(backendCheckEnv());
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    Detection D = detectRaces(*P.Prog, EspBagsDetector::Mode::MRW, Exec);
    ASSERT_TRUE(D.ok());
    EXPECT_EQ(Reg.counterValue("detect.backend_checks"), 0u);
  }
  EnvVar E("TDR_BACKEND_CHECK", "1");
  EXPECT_TRUE(backendCheckEnv());
}

TEST(BackendCheck, WholeRepairRunsCheckedInBothModes) {
  // End-to-end: a full (replaying) repair under TDR_BACKEND_CHECK still
  // succeeds and produces the same program as an unchecked one — every
  // detection along the way was cross-checked.
  for (EspBagsDetector::Mode Mode :
       {EspBagsDetector::Mode::SRW, EspBagsDetector::Mode::MRW}) {
    RepairOptions Opts;
    Opts.Mode = Mode;
    Opts.Exec.Args = {5};
    std::string Plain;
    RepairResult Unchecked = repairSource(RacySource, Plain, Opts);
    ASSERT_TRUE(Unchecked.Success) << Unchecked.Error;

    EnvVar E("TDR_BACKEND_CHECK", "1");
    obs::MetricsRegistry Reg;
    obs::ScopedMetrics Scope(Reg);
    std::string Checked;
    RepairResult R = repairSource(RacySource, Checked, Opts);
    ASSERT_TRUE(R.Success) << R.Error;
    EXPECT_GE(Reg.counterValue("detect.backend_checks"),
              static_cast<uint64_t>(R.Stats.Iterations));
    EXPECT_EQ(Checked, Plain);
  }
}

} // namespace
