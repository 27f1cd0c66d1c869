// cold-solve: Engine::Solve (D-Tucker, shipped defaults including
// measure_error) round-robin over the six E1 analogs at E1's scale, rank 10,
// 10 iterations, one BLAS thread. The paper's headline; the approximation
// phase (rSVD thin GEMM and QR) is most of each solve.
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/run_context.h"
#include "common/trace.h"
#include "dtucker/engine.h"
#include "harness.h"
#include "linalg/blas.h"
#include "tucker/hosvd.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr Index kRank = 10;
constexpr int kIters = 10;
// D-Tucker's error may exceed the ST-HOSVD oracle's by this factor. Over
// seeds 1-40 the measured ratio spans 0.90-1.20 on stock (the widest
// analog) and stays within 0.99-1.02 on the others; the ceiling leaves room
// above that, never asserting equality, but not for a broken solver.
constexpr double kErrorCeiling = 1.5;
constexpr int kSetupReps = 3;
constexpr int kReadBackCount = 64;

dtucker::EngineOptions ColdEngineOptions(const Tensor& x) {
  dtucker::EngineOptions o;
  o.method = dtucker::TuckerMethod::kDTucker;
  o.method_options.tucker.ranks = ClampedRanks(x, kRank);
  o.method_options.tucker.max_iterations = kIters;
  o.blas_threads = 1;
  return o;
}

struct ColdInputs {
  std::vector<Analog> analogs;
  std::vector<std::unique_ptr<dtucker::Engine>> engines;
  std::vector<dtucker::EngineRun> reference;  // First solve, made in set-up.
  std::vector<double> sthosvd_error;
  std::vector<std::vector<std::vector<Index>>> readback_idx;
  std::vector<std::vector<double>> readback_ref;
};

void CheckErrorCeiling(const std::string& op, double error, double oracle) {
  if (Corrupt("error_ceiling")) error *= 2;
  if (!(error <= kErrorCeiling * oracle)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "check=error_ceiling rel_error %.6e > %.2f x ST-HOSVD %.6e",
                  error, kErrorCeiling, oracle);
    CheckFailed(op, buf);
  }
}

// Set-up proper: an engine, the reference solve and the ST-HOSVD oracle
// per analog. Generating the analogs is input making, not set-up.
std::unique_ptr<ColdInputs> SetUpCold(std::vector<Analog> analogs,
                                      std::uint64_t seed) {
  dtucker::SetBlasThreads(1);
  auto in = std::make_unique<ColdInputs>();
  in->analogs = std::move(analogs);
  for (std::size_t a = 0; a < in->analogs.size(); ++a) {
    const Analog& an = in->analogs[a];
    const std::string op = "setup.solve." + an.name;
    in->engines.push_back(
        std::make_unique<dtucker::Engine>(ColdEngineOptions(an.x)));
    auto run = in->engines.back()->Solve(an.x);
    if (!run.ok() || !run.value().status.ok()) {
      CheckFailed(op, "solve failed: " + (run.ok() ? run.value().status
                                                   : run.status())
                                             .ToString());
    }
    CheckOrthonormal(op, run.value().decomposition);
    auto oracle = dtucker::StHosvd(an.x, ClampedRanks(an.x, kRank));
    if (!oracle.ok()) CheckFailed(op, oracle.status().ToString());
    in->sthosvd_error.push_back(oracle.value().RelativeErrorAgainst(an.x));
    CheckErrorCeiling(op, run.value().relative_error, in->sthosvd_error.back());
    in->readback_idx.push_back(
        SeededIndices(an.x.shape(), seed * 1000 + a, kReadBackCount));
    in->readback_ref.push_back(
        ReadBack(op, run.value().decomposition, in->readback_idx.back()));
    in->reference.push_back(std::move(run).ValueOrDie());
  }
  return in;
}

std::unique_ptr<ColdInputs> TimedSetUp(std::uint64_t seed, double* setup_s) {
  std::unique_ptr<ColdInputs> in;
  std::vector<Analog> analogs = MakeE1Analogs(seed);
  *setup_s = MedianSeconds(kSetupReps, [&] {
    if (in) analogs = std::move(in->analogs);
    in = SetUpCold(std::move(analogs), seed);
  });
  return in;
}

}  // namespace

RunResult RunColdSolve(const Args& args) {
  EndToEnd e;
  std::unique_ptr<ColdInputs> in = TimedSetUp(args.seed, &e.setup_s);
  const std::size_t n = in->analogs.size();
  // The solves start no threads (one BLAS thread, one slice worker), so
  // each may run pinned.
  CoreRotation cores;
  LatencyLog solves(n, cores.count());
  ResetPeakRss();
  // Whole rounds only, so every analog is equally represented.
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t a = 0; a < n; ++a) {
      const Analog& an = in->analogs[a];
      const std::string op = "solve." + an.name;
      cores.Next();
      const Clock::time_point t = Clock::now();
      auto run = in->engines[a]->Solve(an.x);
      const double solve_ms = SecondsSince(t) * 1e3;
      e.attempted += 1;
      if (!run.ok() || !run.value().status.ok()) {
        e.failed += 1;
        continue;
      }
      solves.Add(a, solve_ms, cores.current());
      e.completed_ops += 1;
      std::vector<double> answers =
          ReadBack(op, run.value().decomposition, in->readback_idx[a]);
      CheckBitwise("bitwise_repeat", op, run.value().decomposition,
                   in->reference[a].decomposition);
      CheckOrthonormal(op, run.value().decomposition);
      CheckErrorCeiling(op, run.value().relative_error, in->sthosvd_error[a]);
      CheckReadBack(op, std::move(answers), in->readback_ref[a]);
      e.rel_error_max = std::max(e.rel_error_max, run.value().relative_error);
    }
  } while (SecondsSince(t0) < args.seconds);
  e.wall_s = SecondsSince(t0);
  e.peak_rss_mib = PeakRssMib();
  RunResult out;
  ReportEndToEnd(e, solves, nullptr, &out);
  return out;
}

void TraceColdSolve(const Args& args, double budget_s, RunResult* out) {
  std::unique_ptr<ColdInputs> in =
      SetUpCold(MakeE1Analogs(args.seed, true), args.seed);
  RunKernelProbes(in->analogs, out);
  const std::size_t n = in->analogs.size();
  // Per analog: untraced and traced Engine::Solve (tracing overhead), the
  // ST-HOSVD baseline, and the traced layered solve.
  std::vector<std::vector<double>> engine_s(n), traced_engine_s(n),
      sthosvd_s(n), phases_s(n);
  dtucker::RunContext ctx;
  const std::vector<const char*> names = {
      "layer.solve", "layer.ApproximateSlices",
      "layer.DTuckerFromApproximation", "layer.RelativeErrorAgainst"};
  std::vector<SpanTotals> spans(names.size());
  int rounds = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t a = 0; a < n; ++a) {
      const Analog& an = in->analogs[a];
      const std::string op = "trace." + an.name;
      dtucker::Engine& engine = *in->engines[a];
      const std::vector<Index> ranks = ClampedRanks(an.x, kRank);

      Clock::time_point t = Clock::now();
      auto untraced = engine.Solve(an.x);
      engine_s[a].push_back(SecondsSince(t));
      if (!untraced.ok()) CheckFailed(op, untraced.status().ToString());
      // E1's D-Tucker time: the solver's phases, without measuring error.
      phases_s[a].push_back(untraced.value().stats.TotalSeconds());
      t = Clock::now();
      auto sthosvd = dtucker::StHosvd(an.x, ranks);
      sthosvd_s[a].push_back(SecondsSince(t));
      if (!sthosvd.ok()) CheckFailed(op, sthosvd.status().ToString());

      dtucker::SetTraceEnabled(true);
      t = Clock::now();
      auto traced = engine.Solve(an.x);
      traced_engine_s[a].push_back(SecondsSince(t));
      if (!traced.ok()) CheckFailed(op, traced.status().ToString());

      // The layered path Engine::Solve takes for D-Tucker, one public call
      // per layer, with the options the engine derives from its own.
      const dtucker::MethodOptions& mo = engine.options().method_options;
      dtucker::DTuckerOptions opt;
      opt.tucker = mo.tucker;
      opt.tucker.run_context = &ctx;
      opt.oversampling = mo.oversampling;
      opt.power_iterations = mo.power_iterations;
      opt.num_threads = mo.num_threads;
      opt.variants = mo.variants;
      dtucker::SliceApproximationOptions ao;
      ao.slice_rank =
          std::min(opt.EffectiveSliceRank(), std::min(an.x.dim(0), an.x.dim(1)));
      ao.oversampling = opt.oversampling;
      ao.power_iterations = opt.power_iterations;
      ao.seed = opt.tucker.seed;
      ao.num_threads = opt.num_threads;
      ao.run_context = &ctx;
      ao.qr_variant = opt.variants.qr;
      TuckerDecomposition dec;
      double error = 0;
      {
        dtucker::TraceSpan solve_span("layer.solve");
        dtucker::Result<dtucker::SliceApproximation> approx = [&] {
          dtucker::TraceSpan s("layer.ApproximateSlices");
          return dtucker::ApproximateSlices(an.x, ao);
        }();
        if (!approx.ok()) CheckFailed(op, approx.status().ToString());
        dtucker::TuckerStats stats;
        auto solved = [&] {
          dtucker::TraceSpan s("layer.DTuckerFromApproximation");
          return dtucker::DTuckerFromApproximation(approx.value(), opt, &stats);
        }();
        if (!solved.ok()) CheckFailed(op, solved.status().ToString());
        dec = std::move(solved).ValueOrDie();
        dtucker::TraceSpan s("layer.RelativeErrorAgainst");
        error = dec.RelativeErrorAgainst(an.x);
      }
      dtucker::SetTraceEnabled(false);
      // Fold this solve's spans in before the library's own spans of later
      // solves could wrap the per-thread ring buffer.
      if (dtucker::TraceDroppedEventCount() != 0) {
        CheckFailed(op, "trace ring buffer overflowed; the layer table would "
                        "be incomplete");
      }
      const std::vector<SpanTotals> solve_spans = SumSpans(names);
      for (std::size_t k = 0; k < names.size(); ++k) {
        spans[k].total_s += solve_spans[k].total_s;
        spans[k].self_s += solve_spans[k].self_s;
        spans[k].count += solve_spans[k].count;
      }
      dtucker::ClearTrace();
      out->attempted += 4;
      CheckBitwise("layered_equals_engine", op, dec,
                   untraced.value().decomposition);
      CheckBitwise("layered_equals_engine", op, traced.value().decomposition,
                   untraced.value().decomposition);
      if (error != untraced.value().relative_error) {
        CheckFailed(op, "check=layered_equals_engine relative error differs");
      }
    }
    ++rounds;
  } while (SecondsSince(t0) < budget_s);

  // Layer table over one round (totals divided by the round count).
  const double per_round = 1.0 / rounds;
  double engine_round = 0, traced_round = 0, approx_flops = 0;
  int wins = 0;
  Metrics& m = out->metrics;
  for (std::size_t a = 0; a < n; ++a) {
    const Analog& an = in->analogs[a];
    const double solve = Median(engine_s[a]);
    engine_round += solve;
    traced_round += Median(traced_engine_s[a]);
    const double st = Median(sthosvd_s[a]);
    approx_flops += static_cast<double>(an.x.NumFrontalSlices()) *
                    RsvdFlops(an.x.dim(0), an.x.dim(1), kRank + 5);
    if (Median(phases_s[a]) < st) ++wins;
    m.Set("dtucker.solve_ms." + an.name, solve * 1e3, "ms");
    m.Set("tucker.sthosvd_ms." + an.name, st * 1e3, "ms");
    m.Set("tucker.error_ratio." + an.name,
          in->reference[a].relative_error / in->sthosvd_error[a], "ratio");
  }
  m.Set("dtucker.sthosvd_wins", wins, "count");
  const double approx = spans[1].total_s * per_round;
  const double from_approx = spans[2].total_s * per_round;
  const double error = spans[3].total_s * per_round;
  const double unattributed = engine_round - approx - from_approx - error;
  m.Set("dtucker.approx_ms", approx * 1e3, "ms");
  m.Set("dtucker.approx_share", approx / engine_round, "share");
  m.Set("dtucker.approx_gflops", approx_flops / approx * 1e-9, "GF/s");
  m.Set("tucker.error_ms", error * 1e3, "ms");
  m.Set("dtucker.engine_overhead_ms", unattributed * 1e3, "ms");
  m.Set("trace.overhead_share", traced_round / engine_round - 1.0, "share");

  char table[2048];
  std::snprintf(
      table, sizeof(table),
      "layer table: cold-solve, one round of %zu analogs, 1 BLAS thread, "
      "mean of %d rounds\n"
      "%-34s %10s %10s %8s %12s\n"
      "%-34s %10.2f %10s %7.1f%% %12s\n"
      "%-34s %10.2f %10.2f %7.1f%% %12.2f\n"
      "%-34s %10.2f %10.2f %7.1f%% %12s\n"
      "%-34s %10.2f %10.2f %7.1f%% %12s\n"
      "%-34s %10.2f %10.2f %7.1f%% %12s\n"
      "(rows below the run add up to the untraced Engine::Solve wall time; "
      "GF/s from computed flops)\n",
      n, rounds, "layer", "total_ms", "self_ms", "share", "GF/s",
      "run: Engine::Solve (untraced)", engine_round * 1e3, "-", 100.0, "-",
      "  dtucker.ApproximateSlices", approx * 1e3,
      spans[1].self_s * per_round * 1e3, 100 * approx / engine_round,
      approx_flops / approx * 1e-9, "  dtucker.DTuckerFromApproximation",
      from_approx * 1e3, spans[2].self_s * per_round * 1e3,
      100 * from_approx / engine_round, "-", "  tucker.RelativeErrorAgainst",
      error * 1e3, spans[3].self_s * per_round * 1e3,
      100 * error / engine_round, "-", "  unattributed", unattributed * 1e3,
      unattributed * 1e3, 100 * unattributed / engine_round, "-");
  std::fputs(table, stderr);
  std::ofstream(WorkDir() + "/layer_table_cold_solve.txt") << table;
}

}  // namespace perfbench
