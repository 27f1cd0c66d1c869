// sharded-file: one large analog written to a .dtnsr file in set-up, then
// Engine::SolveFile with num_ranks in-process ranks at one BLAS thread each.
// The only workload where the communicator and the file reads do real work;
// its solve time is the sharded run's whole wall time.
#include <cstdio>
#include <thread>

#include "comm/communicator.h"
#include "common/metrics.h"
#include "data/generators.h"
#include "data/tensor_file.h"
#include "data/tensor_io.h"
#include "dtucker/engine.h"
#include "harness.h"
#include "linalg/blas.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The music analog at scale 1 (600 x 256 x 128) with 1.5x its frames, so
// one solve takes ~0.2 s: a run then holds ~70 solves, well inside the
// [40, 100) sample range whose tail is p75 (at 128 frames runs held 95-105
// and the tail flipped between p75 and p90).
constexpr Index kShape[] = {600, 256, 192};
constexpr Index kRank = 10;
constexpr int kIters = 10;
constexpr int kSetupReps = 3;
constexpr int kReadBackCount = 64;
const char* const kCommOps[] = {"broadcast", "allreduce_sum", "allreduce_max",
                                "barrier",   "gather",        "allgatherv"};

// Results agree bitwise across sharded rank counts that are powers of two
// (dtucker/sharded_dtucker.h), so the rank count is the largest one <= nproc.
int NumRanks() {
  int r = 1;
  while (r * 2 <= Nproc()) r *= 2;
  return r;
}

dtucker::EngineOptions ShardOptions(const std::vector<Index>& shape,
                                    int ranks) {
  dtucker::EngineOptions o;
  for (Index d : shape) {
    o.method_options.tucker.ranks.push_back(std::min(kRank, d));
  }
  o.method_options.tucker.max_iterations = kIters;
  o.blas_threads = 1;
  o.num_ranks = ranks;
  return o;
}

struct ShardInputs {
  std::string path;
  std::vector<Index> shape;
  TuckerDecomposition reference;  // 1-rank sharded run, made in set-up.
  std::vector<std::vector<Index>> readback_idx;
  std::vector<double> readback_ref;
};

Tensor MakeInput(std::uint64_t seed) {
  // Noise and seed offset as data/datasets.cc generates "music".
  return dtucker::MakeMusicAnalog(kShape[0], kShape[1], kShape[2], 0.02,
                                  seed + 4);
}

// Set-up proper: write the file, then the 1-rank sharded reference solve.
ShardInputs SetUpShard(const Tensor& x, std::uint64_t seed) {
  dtucker::SetBlasThreads(1);
  ShardInputs in;
  in.path = WorkDir() + "/sharded_input.dtnsr";
  in.shape = x.shape();
  const dtucker::Status st = dtucker::SaveTensor(x, in.path);
  if (!st.ok()) CheckFailed("setup.write", st.ToString());
  dtucker::Engine one(ShardOptions(in.shape, 1));
  auto run = one.SolveFile(in.path);
  if (!run.ok() || !run.value().status.ok()) {
    CheckFailed("setup.solve.1rank",
                (run.ok() ? run.value().status : run.status()).ToString());
  }
  CheckOrthonormal("setup.solve.1rank", run.value().decomposition);
  in.readback_idx = SeededIndices(in.shape, seed * 1000, kReadBackCount);
  in.readback_ref =
      ReadBack("setup.solve.1rank", run.value().decomposition, in.readback_idx);
  in.reference = std::move(run).ValueOrDie().decomposition;
  return in;
}

}  // namespace

RunResult RunShardedFile(const Args& args) {
  EndToEnd e;
  ShardInputs in;
  {
    const Tensor x = MakeInput(args.seed);
    e.setup_s = MedianSeconds(kSetupReps, [&] { in = SetUpShard(x, args.seed); });
  }  // The raw tensor is gone: the timed phase reads only the file.
  const int ranks = NumRanks();
  dtucker::Engine engine(ShardOptions(in.shape, ranks));
  LatencyLog solves(1);
  ResetPeakRss();
  const Clock::time_point t0 = Clock::now();
  const std::string op = "solve." + std::to_string(ranks) + "ranks";
  while (SecondsSince(t0) < args.seconds) {
    const Clock::time_point t = Clock::now();
    auto run = engine.SolveFile(in.path);
    const double solve_ms = SecondsSince(t) * 1e3;
    e.attempted += 1;
    if (!run.ok() || !run.value().status.ok()) {
      e.failed += 1;
      continue;
    }
    solves.Add(0, solve_ms);
    e.completed_ops += 1;
    std::vector<double> answers =
        ReadBack(op, run.value().decomposition, in.readback_idx);
    CheckBitwise("sharded_equals_1rank", op, run.value().decomposition,
                 in.reference);
    CheckOrthonormal(op, run.value().decomposition);
    CheckReadBack(op, std::move(answers), in.readback_ref);
    e.rel_error_max = std::max(e.rel_error_max, run.value().relative_error);
  }
  e.wall_s = SecondsSince(t0);
  e.peak_rss_mib = PeakRssMib();
  std::remove(in.path.c_str());
  RunResult out;
  ReportEndToEnd(e, solves, nullptr, &out);
  return out;
}

void TraceShardedFile(const Args& args, double budget_s, RunResult* out) {
  ShardInputs in = SetUpShard(MakeInput(args.seed), args.seed);
  const int ranks = NumRanks();
  dtucker::Engine engine(ShardOptions(in.shape, ranks));
  dtucker::Engine one(ShardOptions(in.shape, 1));
  auto comm_wait_ns = [] {
    double s = 0;
    for (const char* op : kCommOps) {
      s += dtucker::MetricGauge(std::string("comm.wait_ns.") + op).Value();
    }
    return s;
  };
  auto comm_ops = [] {
    double s = 0;
    for (const char* op : kCommOps) {
      s += static_cast<double>(
          dtucker::MetricCounter(std::string("comm.ops.") + op).Value());
    }
    return s;
  };
  dtucker::Counter& bytes = dtucker::MetricCounter("comm.bytes_reduced");
  std::vector<double> wall, wall_one, approx, init, iterate;
  double wait_ns = 0, ops = 0, reduced = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    const double w0 = comm_wait_ns(), o0 = comm_ops();
    const std::uint64_t b0 = bytes.Value();
    Clock::time_point t = Clock::now();
    auto run = engine.SolveFile(in.path);
    wall.push_back(SecondsSince(t));
    if (!run.ok()) CheckFailed("trace.solve", run.status().ToString());
    wait_ns += comm_wait_ns() - w0;
    ops += comm_ops() - o0;
    reduced += static_cast<double>(bytes.Value() - b0);
    CheckBitwise("sharded_equals_1rank", "trace.solve",
                 run.value().decomposition, in.reference);
    const dtucker::TuckerStats& s = run.value().stats;
    approx.push_back(s.preprocess_seconds);
    init.push_back(s.init_seconds);
    iterate.push_back(s.iterate_seconds);
    t = Clock::now();
    auto single = one.SolveFile(in.path);
    wall_one.push_back(SecondsSince(t));
    if (!single.ok()) CheckFailed("trace.solve.1rank", single.status().ToString());
    out->attempted += 2;
  } while (SecondsSince(t0) < budget_s);
  const double solves = static_cast<double>(wall.size());

  // One AllGatherV of the compressed slices ((I1 + I2 + 1) Js doubles per
  // slice), each rank contributing its contiguous slice range.
  const Index l = in.shape[2];
  const std::size_t per_slice =
      static_cast<std::size_t>((in.shape[0] + in.shape[1] + 1) * kRank);
  std::vector<std::size_t> counts;
  for (int r = 0; r < ranks; ++r) {
    const Index lo = l * r / ranks, hi = l * (r + 1) / ranks;
    counts.push_back(static_cast<std::size_t>(hi - lo) * per_slice);
  }
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  std::vector<double> gather_s;
  auto group = dtucker::InProcessGroup::Create(ranks);
  for (int rep = 0; rep < 9; ++rep) {
    std::vector<std::thread> threads;
    std::vector<double> rank_s(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        std::vector<double> send(counts[static_cast<std::size_t>(r)], 1.0 + r);
        std::vector<double> recv(total);
        const Clock::time_point g0 = Clock::now();
        const dtucker::Status st =
            group->comm(r)->AllGatherV(send.data(), counts, recv.data());
        rank_s[static_cast<std::size_t>(r)] = SecondsSince(g0);
        if (!st.ok()) CheckFailed("trace.allgatherv", st.ToString());
      });
    }
    for (std::thread& t : threads) t.join();
    gather_s.push_back(*std::max_element(rank_s.begin(), rank_s.end()));
  }

  // Whole-file read through the streaming reader.
  std::vector<double> read_s;
  {
    auto reader = dtucker::TensorFileReader::Open(in.path);
    if (!reader.ok()) CheckFailed("trace.read", reader.status().ToString());
    std::vector<double> buf(static_cast<std::size_t>(in.shape[0] * in.shape[1] * l));
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point r0 = Clock::now();
      const dtucker::Status st =
          reader.value().ReadFrontalSlices(0, l, buf.data());
      read_s.push_back(SecondsSince(r0));
      if (!st.ok()) CheckFailed("trace.read", st.ToString());
    }
  }
  const double file_mib = static_cast<double>(in.shape[0] * in.shape[1] * l) *
                          sizeof(double) / (1024.0 * 1024.0);
  std::remove(in.path.c_str());

  Metrics& m = out->metrics;
  m.Set("shard.approx_ms", Median(approx) * 1e3, "ms");
  m.Set("shard.init_ms", Median(init) * 1e3, "ms");
  m.Set("shard.iterate_ms", Median(iterate) * 1e3, "ms");
  m.Set("shard.speedup_vs_1rank", Median(wall_one) / Median(wall), "ratio");
  m.Set("comm.wait_ms", wait_ns / solves * 1e-6, "ms");
  m.Set("comm.bytes", reduced / solves, "bytes");
  m.Set("comm.collectives", ops / solves, "count");
  m.Set("comm.allgatherv_ms", Median(gather_s) * 1e3, "ms");
  m.Set("data.read_mib_per_s", file_mib / Median(read_s), "MiB/s");
  std::fprintf(stderr,
               "sharded-file layers (%d ranks x 1 BLAS thread, %zu solves): "
               "wall %.1f ms (1 rank %.1f ms) | approx %.1f init %.1f iterate "
               "%.1f ms | comm wait %.2f ms, %.0f collectives, %.0f bytes "
               "reduced per solve (summed over ranks) | allgatherv %.3f ms "
               "for %zu doubles | file read %.0f MiB/s\n",
               ranks, wall.size(), Median(wall) * 1e3, Median(wall_one) * 1e3,
               Median(approx) * 1e3, Median(init) * 1e3, Median(iterate) * 1e3,
               wait_ns / solves * 1e-6, ops / solves, reduced / solves,
               Median(gather_s) * 1e3, total, file_mib / Median(read_s));
}

}  // namespace perfbench
