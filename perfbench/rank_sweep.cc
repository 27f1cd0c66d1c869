// rank-sweep: each E1 analog is compressed once in set-up at the sweep's
// largest rank, then Engine::SolveApproximation runs over a seeded cycle of
// target ranks on nproc BLAS threads. No approximation work is timed:
// initialization plus HOOI sweeps are the whole solve, so a gain in the
// approximation phase must show no change here (only in setup_s).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "common/trace.h"
#include "dtucker/engine.h"
#include "harness.h"
#include "linalg/blas.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr Index kRanks[] = {4, 6, 8, 10};
constexpr Index kMaxRank = 10;
constexpr int kIters = 10;
constexpr int kSetupReps = 3;
constexpr int kReadBackCount = 64;

struct Pair {
  std::size_t analog;
  Index rank;
  std::unique_ptr<dtucker::Engine> engine;
  TuckerDecomposition reference;  // First solve, made in set-up.
  std::vector<std::vector<Index>> readback_idx;
  std::vector<double> readback_ref;
};

struct SweepInputs {
  std::vector<Analog> analogs;
  std::vector<dtucker::SliceApproximation> approx;
  std::vector<Pair> pairs;
  std::vector<std::size_t> cycle;  // Seeded order of the pairs.
};

// Set-up proper: compress every analog at kMaxRank (slices spread over
// nproc workers, one BLAS thread each), then one reference solve per
// (analog, rank) pair on nproc BLAS threads.
std::unique_ptr<SweepInputs> SetUpSweep(std::vector<Analog> analogs,
                                        std::uint64_t seed) {
  const int threads = Nproc();
  auto in = std::make_unique<SweepInputs>();
  in->analogs = std::move(analogs);
  dtucker::SetBlasThreads(1);
  for (const Analog& an : in->analogs) {
    dtucker::SliceApproximationOptions ao;
    ao.slice_rank = std::min(kMaxRank, std::min(an.x.dim(0), an.x.dim(1)));
    ao.num_threads = threads;
    auto approx = dtucker::ApproximateSlices(an.x, ao);
    if (!approx.ok()) {
      CheckFailed("setup.compress." + an.name, approx.status().ToString());
    }
    in->approx.push_back(std::move(approx).ValueOrDie());
  }
  for (std::size_t a = 0; a < in->analogs.size(); ++a) {
    for (Index rank : kRanks) {
      const Analog& an = in->analogs[a];
      const std::string op =
          "setup.solve." + an.name + ".r" + std::to_string(rank);
      dtucker::EngineOptions o;
      o.method_options.tucker.ranks = ClampedRanks(an.x, rank);
      o.method_options.tucker.max_iterations = kIters;
      o.blas_threads = threads;
      Pair p{a, rank, std::make_unique<dtucker::Engine>(o), {}, {}, {}};
      auto run = p.engine->SolveApproximation(in->approx[a]);
      if (!run.ok() || !run.value().status.ok()) {
        CheckFailed(op, "solve failed: " + (run.ok() ? run.value().status
                                                     : run.status())
                                               .ToString());
      }
      CheckOrthonormal(op, run.value().decomposition);
      p.readback_idx = SeededIndices(an.x.shape(),
                                     seed * 1000 + in->pairs.size(),
                                     kReadBackCount);
      p.readback_ref =
          ReadBack(op, run.value().decomposition, p.readback_idx);
      p.reference = std::move(run).ValueOrDie().decomposition;
      in->pairs.push_back(std::move(p));
    }
  }
  for (std::size_t i = 0; i < in->pairs.size(); ++i) in->cycle.push_back(i);
  dtucker::Rng rng(seed);
  for (std::size_t i = in->cycle.size(); i > 1; --i) {
    std::swap(in->cycle[i - 1], in->cycle[rng.UniformInt(i)]);
  }
  return in;
}

std::string PairOp(const SweepInputs& in, const Pair& p) {
  return "solve." + in.analogs[p.analog].name + ".r" + std::to_string(p.rank);
}

}  // namespace

RunResult RunRankSweep(const Args& args) {
  EndToEnd e;
  std::vector<Analog> analogs = MakeE1Analogs(args.seed);
  std::unique_ptr<SweepInputs> in;
  e.setup_s = MedianSeconds(kSetupReps, [&] {
    if (in) analogs = std::move(in->analogs);
    in = SetUpSweep(std::move(analogs), args.seed);
  });
  LatencyLog solves(in->pairs.size());
  ResetPeakRss();
  // Whole cycles only, so every (analog, rank) pair is equally represented.
  const Clock::time_point t0 = Clock::now();
  do {
    for (std::size_t i : in->cycle) {
      Pair& p = in->pairs[i];
      const Clock::time_point t = Clock::now();
      auto run = p.engine->SolveApproximation(in->approx[p.analog]);
      const double solve_ms = SecondsSince(t) * 1e3;
      e.attempted += 1;
      if (!run.ok() || !run.value().status.ok()) {
        e.failed += 1;
        continue;
      }
      solves.Add(i, solve_ms);
      e.completed_ops += 1;
      const std::string op = PairOp(*in, p);
      std::vector<double> answers =
          ReadBack(op, run.value().decomposition, p.readback_idx);
      CheckBitwise("bitwise_repeat", op, run.value().decomposition,
                   p.reference);
      CheckOrthonormal(op, run.value().decomposition);
      CheckReadBack(op, std::move(answers), p.readback_ref);
      e.rel_error_max = std::max(e.rel_error_max, run.value().relative_error);
    }
  } while (SecondsSince(t0) < args.seconds);
  e.wall_s = SecondsSince(t0);
  e.peak_rss_mib = PeakRssMib();
  RunResult out;
  ReportEndToEnd(e, solves, nullptr, &out);
  return out;
}

void TraceRankSweep(const Args& args, double budget_s, RunResult* out) {
  std::unique_ptr<SweepInputs> in =
      SetUpSweep(MakeE1Analogs(args.seed, true), args.seed);
  // Initialization alone (DTuckerInitializeOnly), then the whole query
  // phase (DTuckerFromApproximation); iterate = whole - init.
  std::vector<double> init_ms, iterate_ms, sweeps;
  const Clock::time_point t0 = Clock::now();
  dtucker::SetTraceEnabled(true);
  do {
    for (std::size_t i : in->cycle) {
      const Pair& p = in->pairs[i];
      const dtucker::SliceApproximation& approx = in->approx[p.analog];
      const std::string op = "trace." + PairOp(*in, p);
      dtucker::DTuckerOptions opt;
      opt.tucker = p.engine->options().method_options.tucker;
      Clock::time_point t = Clock::now();
      auto init = [&] {
        dtucker::TraceSpan s("layer.DTuckerInitializeOnly");
        return dtucker::DTuckerInitializeOnly(approx, opt);
      }();
      const double init_s = SecondsSince(t);
      dtucker::TuckerStats stats;
      t = Clock::now();
      auto full = [&] {
        dtucker::TraceSpan s("layer.DTuckerFromApproximation");
        return dtucker::DTuckerFromApproximation(approx, opt, &stats);
      }();
      const double full_s = SecondsSince(t);
      if (!init.ok() || !full.ok()) CheckFailed(op, "query phase failed");
      CheckBitwise("layered_equals_engine", op, full.value(), p.reference);
      init_ms.push_back(init_s * 1e3);
      iterate_ms.push_back((full_s - init_s) * 1e3);
      sweeps.push_back(stats.iterations);
      out->attempted += 2;
    }
  } while (SecondsSince(t0) < budget_s);
  dtucker::SetTraceEnabled(false);
  dtucker::ClearTrace();
  double sweep_sum = 0;
  for (double s : sweeps) sweep_sum += s;
  Metrics& m = out->metrics;
  m.Set("dtucker.init_ms", Median(init_ms), "ms");
  m.Set("dtucker.iterate_ms", Median(iterate_ms), "ms");
  m.Set("dtucker.sweeps", sweep_sum / static_cast<double>(sweeps.size()),
        "count");
  std::fprintf(stderr,
               "rank-sweep layers (%d BLAS threads, %zu solves): init p50 "
               "%.2f ms | iterate p50 %.2f ms | %.2f sweeps per solve\n",
               Nproc(), sweeps.size(), Median(init_ms), Median(iterate_ms),
               sweep_sum / static_cast<double>(sweeps.size()));
}

}  // namespace perfbench
