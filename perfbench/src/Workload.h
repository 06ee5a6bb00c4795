//===- Workload.h - Benchmark workloads, set-up and checks ------*- C++ -*-===//
///
/// \file
/// A workload is a list of repair jobs: one buggy program on one input,
/// with the reference output and reference critical path its repair is
/// checked against. Set-up builds the list from the seed; verification
/// runs outside every timed region.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "race/Detect.h"
#include "repair/RepairDriver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { ExecHeavy, RaceDense, ManySmall };

bool parseWorkload(const std::string &Name, WorkloadKind &Out);

struct JobSpec {
  std::string Name;        ///< program name, plus "@L<level>" on the ladder
  std::string BuggySource; ///< finish-stripped suite program, or generated
  tdr::ExecOptions Exec;   ///< the test input
  std::string RefOutput;   ///< output of the serial elision
  bool RefOk = true;       ///< false when the serial elision failed to run
  /// T-infinity the repaired program is compared with: the expert version
  /// for suite programs, the unrepaired program for generated programs
  /// without futures; 0 when there is no reference.
  uint64_t RefTinf = 0;
  unsigned Level = 0; ///< input size 2^-Level of the full input (suite)
};

struct Workload {
  WorkloadKind Kind = WorkloadKind::ExecHeavy;
  std::vector<JobSpec> Jobs;
  unsigned Workers = 1;   ///< closed-loop clients
  size_t Screened = 0;    ///< generated programs that were not small
};

/// What a job is set up from; \p Quick selects tiny inputs.
struct SetupConfig {
  WorkloadKind Kind = WorkloadKind::ExecHeavy;
  uint64_t Seed = 1;
  bool Quick = false;
  unsigned Workers = 0; ///< many-small worker override; 0 = min(4, nproc)
};

/// Parses and checks every program, strips finishes, prints the buggy
/// sources, generates random programs (on the many-small workers), and
/// computes reference outputs and critical paths. Aborts on a suite
/// program that fails to load.
Workload setupWorkload(const SetupConfig &C);

/// The jobs the layer ladder runs: every suite job at the given levels, or
/// the small ones among the first \p MaxSmall generated programs. Set up
/// like setupWorkload.
std::vector<JobSpec> ladderJobs(const SetupConfig &C,
                                const std::vector<unsigned> &Levels,
                                size_t MaxSmall);

/// The pinned configuration every job runs with: ESP-bags, MRW, replay on,
/// no replay self-check, the default construct set.
tdr::RepairOptions pinnedRepairOptions(const tdr::ExecOptions &Exec);
tdr::DetectOptions pinnedDetectOptions();

/// One job's outcome as the timed loop saw it.
struct Outcome {
  bool Success = false;
  std::string Error;
  std::string Text; ///< repaired source
};

struct Verdict {
  bool Ok = false;
  std::string Reason; ///< failure reason, empty when Ok
  double CplRatio = 0; ///< repaired / reference T-infinity; 0 = none
};

/// Checks an outcome: the repair succeeded, the repaired text parses and
/// passes sema, MRW detection finds no pair, the output equals the serial
/// elision's, and measures the critical-path ratio.
Verdict verify(const JobSpec &J, const Outcome &O);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
