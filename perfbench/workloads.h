// The benchmark's workloads. Each Run* function performs one untraced run
// (set-up, then --seconds of timed work with every output check) and
// returns the end-to-end metrics; each Trace* function measures one group
// of per-layer metrics, spending about `budget_s` seconds of timed work.
#ifndef DTUCKER_PERFBENCH_WORKLOADS_H_
#define DTUCKER_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

RunResult RunColdSolve(const Args& args);
RunResult RunRankSweep(const Args& args);
RunResult RunShardedFile(const Args& args);
RunResult RunServeMixed(const Args& args);

void TraceColdSolve(const Args& args, double budget_s, RunResult* out);
void TraceRankSweep(const Args& args, double budget_s, RunResult* out);
void TraceShardedFile(const Args& args, double budget_s, RunResult* out);
void TraceServeMixed(const Args& args, double budget_s, RunResult* out);

// Kernel reference probes at each E1 analog's exact slice shape (square
// GEMM peak, thin GEMM, thin QR, one-slice rSVD, the init phase's
// eigensolve and ModeGram), single-threaded. Flop counts are computed from
// the operand shapes, not counted by hardware.
void RunKernelProbes(const std::vector<Analog>& analogs, RunResult* out);

// Computed flops of one RandomizedSvd call on an m x n slice with sketch
// width l and one power iteration: three passes over the slice, three thin
// QRs and the two basis rotations.
double RsvdFlops(double m, double n, double l);

}  // namespace perfbench

#endif  // DTUCKER_PERFBENCH_WORKLOADS_H_
