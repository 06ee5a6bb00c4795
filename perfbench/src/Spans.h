//===- Spans.h - In-memory job spans for the repair benchmark ---*- C++ -*-===//
///
/// \file
/// The benchmark's own tracing: a span around each call it makes into a
/// tdr layer. Spans of one job share the job id; a span's parent is the
/// span open on the same thread when it started. Everything stays in
/// memory until the run ends and is then written as Chrome trace JSON,
/// which Perfetto and chrome://tracing open.
///
/// A disabled log records nothing: opening a span costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "support/Timer.h"

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  static constexpr uint32_t NoParent = UINT32_MAX;
  const char *Name = "";
  uint64_t Job = 0;
  uint32_t Parent = NoParent;
  uint32_t Tid = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;

  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
};

class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}
  SpanLog(const SpanLog &) = delete;
  SpanLog &operator=(const SpanLog &) = delete;

  /// RAII span. The root span of a job names the job id; nested spans
  /// inherit it from the span open on their thread.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name, uint64_t Job)
        : Log(Log), StartNs(tdr::Timer::nowNs()) {
      if (Log.Enabled)
        Index = Log.open(Name, Job, StartNs);
    }
    Scope(SpanLog &Log, const char *Name) : Scope(Log, Name, currentJob()) {}
    ~Scope() { stop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// Closes the span (once) and returns its duration in milliseconds.
    /// Also usable with a disabled log, as a plain timer.
    double stop() {
      if (!Stopped) {
        Stopped = true;
        EndNs = tdr::Timer::nowNs();
        if (Index != Span::NoParent)
          Log.close(Index, EndNs);
      }
      return static_cast<double>(EndNs - StartNs) / 1e6;
    }

  private:
    SpanLog &Log;
    uint64_t StartNs;
    uint64_t EndNs = 0;
    uint32_t Index = Span::NoParent;
    bool Stopped = false;
  };

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> G(M);
    return Spans;
  }

  /// Self time of every span (its duration minus the durations of its
  /// children, which run one after another on its thread), parallel to
  /// spans().
  static std::vector<double> selfMs(const std::vector<Span> &S) {
    std::vector<double> Self(S.size());
    for (size_t I = 0; I != S.size(); ++I)
      Self[I] += S[I].ms();
    for (const Span &X : S)
      if (X.Parent != Span::NoParent)
        Self[X.Parent] -= X.ms();
    return Self;
  }

  /// Writes Chrome trace_event JSON; returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const {
    std::vector<Span> S = spans();
    std::vector<double> Self = selfMs(S);
    uint64_t T0 = S.empty() ? 0 : S.front().StartNs;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
    for (size_t I = 0; I != S.size(); ++I)
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"job\":%llu,\"self_ms\":%.6f}}\n",
                   I ? "," : "", S[I].Name, S[I].Tid,
                   static_cast<double>(S[I].StartNs - T0) / 1e3,
                   static_cast<double>(S[I].EndNs - S[I].StartNs) / 1e3,
                   static_cast<unsigned long long>(S[I].Job), Self[I]);
    std::fputs("]}\n", F);
    return std::fclose(F) == 0;
  }

private:
  struct Open {
    uint32_t Index;
    uint64_t Job;
  };
  static std::vector<Open> &openStack() {
    thread_local std::vector<Open> Stack;
    return Stack;
  }
  static uint64_t currentJob() {
    const std::vector<Open> &St = openStack();
    return St.empty() ? 0 : St.back().Job;
  }
  static uint32_t threadId() {
    static std::mutex IdM;
    static uint32_t Next = 0;
    thread_local uint32_t Id = [] {
      std::lock_guard<std::mutex> G(IdM);
      return ++Next;
    }();
    return Id;
  }

  uint32_t open(const char *Name, uint64_t Job, uint64_t StartNs) {
    std::vector<Open> &St = openStack();
    Span X;
    X.Name = Name;
    X.Job = Job;
    X.Parent = St.empty() ? Span::NoParent : St.back().Index;
    X.Tid = threadId();
    X.StartNs = StartNs;
    uint32_t Index;
    {
      std::lock_guard<std::mutex> G(M);
      Index = static_cast<uint32_t>(Spans.size());
      Spans.push_back(X);
    }
    St.push_back({Index, Job});
    return Index;
  }
  void close(uint32_t Index, uint64_t EndNs) {
    openStack().pop_back();
    std::lock_guard<std::mutex> G(M);
    Spans[Index].EndNs = EndNs;
  }

  const bool Enabled;
  mutable std::mutex M;
  std::vector<Span> Spans; ///< guarded by M
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
