// Shared plumbing of the benchmark binary: arguments, the metric sink, the
// output checks, latency statistics, the process memory high-water mark,
// and the span-based layer table of traced runs.
#ifndef DTUCKER_PERFBENCH_HARNESS_H_
#define DTUCKER_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "tucker/tucker.h"

namespace perfbench {

using dtucker::Index;
using dtucker::Matrix;
using dtucker::Tensor;
using dtucker::TuckerDecomposition;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Names one output check whose input is deliberately corrupted, to show
  // that the check fires (see perfbench/prove_checks.sh). Empty in real runs.
  std::string corrupt;
};

// Every workload's thread budget is derived from this, never above it.
int Nproc();

// Insertion-ordered metric sink; serialized into the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// What a workload run hands back to main().
struct RunResult {
  Metrics metrics;
  long attempted = 0;
  long failed = 0;
};

// --- Output checks ----------------------------------------------------------
// A failed check prints "CHECK FAILED workload=<w> op=<op> <detail>" to
// stderr and exits with code 2 before any result line is printed.

void SetCheckContext(const Args& args);
// True when --corrupt names `check`: the caller then corrupts that check's
// input right before running it.
bool Corrupt(const char* check);
[[noreturn]] void CheckFailed(const std::string& op, const std::string& detail);

// Factors orthonormal to 1e-10: max |A^T A - I| (check "orthonormal").
void CheckOrthonormal(const std::string& op, TuckerDecomposition dec);
// `got` bitwise equal to `want` (check name given by the caller; the
// corrupted input flips the lowest bit of the first core entry).
void CheckBitwise(const char* check, const std::string& op,
                  TuckerDecomposition got, const TuckerDecomposition& want);

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);  // Linear interpolation.
double GeoMean(const std::vector<double>& v);

// The highest percentile of {50, 75, 90, 95, 99, 99.9} that has at least
// ten samples beyond it (50 when even that has fewer).
struct Tail {
  double percentile = 50;
  double value = 0;
  std::size_t count = 0;
};
Tail TailOf(const std::vector<double>& v);

// Latency samples split into groups: a class (an analog, an analog x rank
// pair, a request kind) times, for work pinned by a CoreRotation, the core
// it ran on. The p50 a workload reports is each group's median, then the
// geometric mean over groups: a pooled median of a mix of groups whose
// latencies differ sits on the boundary between two groups' bands and jumps
// between them from run to run (and on a shared VM, cores differ by up
// to 2x for many seconds). The tail is pooled.
class LatencyLog {
 public:
  explicit LatencyLog(std::size_t classes, std::size_t cores = 1)
      : cores_(cores),
        by_class_(classes * cores),
        in_p50_(classes, true) {}
  // Leaves a class out of the p50 (it still counts in the pooled tail).
  void ExcludeFromP50(std::size_t cls) { in_p50_[cls] = false; }
  void Add(std::size_t cls, double v, std::size_t core = 0) {
    by_class_[cls * cores_ + core].push_back(v);
    pooled_.push_back(v);
  }
  double ClassGeoMedian() const;
  // Mean over classes of the within-class (p75 - p25) / p50: how much one
  // run's samples of the same work scatter.
  double WithinClassSpread() const;
  Tail PooledTail() const { return TailOf(pooled_); }
  std::size_t count() const { return pooled_.size(); }

 private:
  std::size_t cores_;
  std::vector<std::vector<double>> by_class_;  // Indexed class * cores + core.
  std::vector<bool> in_p50_;
  std::vector<double> pooled_;
};

// The end-to-end metrics every workload reports, in BENCHMARK.json order
// (solve latencies in ms). `queries_us`, when given, adds query_p50_us and
// query_tail_us (serve-mixed). The solve tail goes to stderr with its
// percentile and sample count: on a shared VM its spread between runs was
// as wide as the largest bound a metric may have.
struct EndToEnd {
  double setup_s = 0;
  double wall_s = 0;
  long completed_ops = 0;  // Solves plus query batches that succeeded.
  long attempted = 0;
  long failed = 0;
  double rel_error_max = 0;
  double peak_rss_mib = 0;
};
void ReportEndToEnd(const EndToEnd& e, const LatencyLog& solves_ms,
                    const LatencyLog* queries_us, RunResult* out);

// A seeded batch of `count` full indices into `shape`: the read-back each
// solve is followed by (a user reading a few values of the fresh model),
// checked against the reference model's answers.
std::vector<std::vector<Index>> SeededIndices(const std::vector<Index>& shape,
                                              std::uint64_t seed, int count);
// Answers `indices` from `dec` with ReconstructElements (check op name
// `op`), returning the answers; exits through CheckFailed on an error.
std::vector<double> ReadBack(const std::string& op,
                             const TuckerDecomposition& dec,
                             const std::vector<std::vector<Index>>& indices);
// Answers bitwise equal to the reference answers (check "readback").
void CheckReadBack(const std::string& op, std::vector<double> got,
                   const std::vector<double>& want);

// Median wall seconds of `reps` calls of `fn` (the setup_s protocol).
double MedianSeconds(int reps, const std::function<void()>& fn);

// --- Core rotation ----------------------------------------------------------

// Pins the calling thread to one allowed core at a time, the next one on
// each Next(), and restores the original mask on Release() and destruction.
// Single-threaded timed work uses it so that a run averages over every
// core: on a shared VM one core can run the same work 1.6x slower than
// another for many seconds, and a thread the scheduler keeps on it would
// make the whole run slow. Threads created while pinned inherit the pin, so
// only work that starts no threads may run pinned.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation() { Release(); }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  void Next();
  void Release();
  // Cores rotated over, and the position of the current pin among them.
  std::size_t count() const { return cores_.empty() ? 1 : cores_.size(); }
  std::size_t current() const { return pinned_ ? (next_ - 1) % cores_.size() : 0; }

 private:
  std::vector<int> cores_;
  std::size_t next_ = 0;
  bool pinned_ = false;
};

// Where scratch files go: <build dir>/work, inside the checkout.
std::string WorkDir();

// --- Memory -----------------------------------------------------------------

// Resets the kernel's resident-set high-water mark to the current RSS
// (writes "5" to /proc/self/clear_refs), so PeakRssMib() covers only what
// follows. Returns false when the kernel refuses.
bool ResetPeakRss();
double PeakRssMib();

// --- Inputs -----------------------------------------------------------------

// The six E1 dataset analogs at E1's scale (0.8), generated from `seed`.
// With `memoize`, the set is also kept and later calls with the same seed
// return a copy (a traced run sets up two groups on the same analogs, and
// copying is much cheaper than generating); untraced runs keep no copy, so
// it never shows in their memory high-water mark.
struct Analog {
  std::string name;
  Tensor x;
};
std::vector<Analog> MakeE1Analogs(std::uint64_t seed, bool memoize = false);
// Rank `rank` per mode, clamped to the mode sizes (E1's rule).
std::vector<Index> ClampedRanks(const Tensor& x, Index rank);

// --- Traced runs ------------------------------------------------------------

// Total and self time of every span recorded under one of `names` (spans
// of other names, such as the library's own, are ignored), from the
// common/trace.h buffers. Self time subtracts the time covered by child
// spans of the listed names on the same thread.
struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
  long count = 0;
};
std::vector<SpanTotals> SumSpans(const std::vector<const char*>& names);

}  // namespace perfbench

#endif  // DTUCKER_PERFBENCH_HARNESS_H_
