// serve-mixed: a DecompositionServer under an open loop at a fixed offered
// rate. Reads are element, fiber and slice query batches on hot cached
// models; writes are solve Submits mixing cache-hit repeats, concurrent
// duplicates (single-flight) and new specs, with the cache bounded below
// the number of distinct specs so that misses and LRU evictions happen.
// Every op is timed from when it was due to be sent.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/datasets.h"
#include "harness.h"
#include "linalg/blas.h"
#include "serve/server.h"
#include "tucker/reconstruct.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Offered load: ops per second, and the op mix (shares of all ops). At this
// rate a 15 s run holds 100-200 queries and as many solves, so the reported
// tails are p90s. An open loop charges a stall of the whole process to every
// op due during it, so the fewer samples beyond the tail, the more one
// stall moves it (perfbench/README.md has the measured spreads).
constexpr double kRate = 18;
constexpr double kElementShare = 0.25, kFiberShare = 0.125, kSliceShare = 0.125;
// The remaining 50% are writes: hit repeats, new specs, new spec + duplicate.
constexpr double kHitShareOfWrites = 0.4, kNewShareOfWrites = 0.4;
constexpr int kIters = 10;
constexpr int kSetupReps = 3;
constexpr int kElementsPerBatch = 16;
constexpr int kFibersPerBatch = 2;
constexpr int kVerifyEvery = 8;  // Every 8th query answer is re-checked.
// Hot models: every (dataset, rank) below. Every op touches the next one
// round-robin, so with 8 more cache entries a hot model would need 9 solves
// to complete within 4 ops to be evicted; the new specs overflow the cache
// several times a run.
constexpr Index kHotRanks[] = {6, 8};
constexpr int kSpareCacheEntries = 8;
constexpr Index kNewRanks[] = {5, 6, 7, 8};

enum QueryKind { kElement, kFiber, kSlice };
enum SolveClass { kHit, kCold, kFollower };

struct Dataset {
  std::string id;
  std::shared_ptr<const Tensor> x;
};

// The served tensors are the server's fixed data (the generators' default
// seed); --seed drives the request stream, which is this workload's input.
std::vector<Dataset> MakeDatasets() {
  std::vector<Dataset> out;
  const std::pair<const char*, double> kDatasets[] = {{"stock", 0.62},
                                                      {"traffic", 0.68}};
  for (const auto& [name, scale] : kDatasets) {
    auto x = dtucker::MakeDataset(name, scale);
    if (!x.ok()) CheckFailed("setup.generate", x.status().ToString());
    out.push_back({name, std::make_shared<const Tensor>(std::move(x).ValueOrDie())});
  }
  return out;
}

dtucker::ModelSpec Spec(const Dataset& d, Index rank, std::uint64_t seed) {
  dtucker::ModelSpec s;
  s.dataset_id = d.id;
  s.ranks = ClampedRanks(*d.x, rank);
  s.max_iterations = kIters;
  s.seed = seed;
  return s;
}

struct Hot {
  dtucker::ModelSpec spec;
  const Dataset* data;
};

// Two cores stay free of solves: one for the generator, which runs the
// queries itself, and one for the waiter threads and the rest of the
// process, so that they do not delay the generator.
int NumWorkers() { return std::max(1, Nproc() - 2); }

// A server plus its hot models, resident after set-up.
struct ServeInputs {
  std::vector<Dataset> datasets;
  std::vector<Hot> hot;
  // The hot models as their set-up solves returned them: the snapshots the
  // server answers queries from, held here so the post-run checks read them
  // whatever the cache has evicted since.
  std::vector<std::shared_ptr<const dtucker::CachedModel>> hot_models;
  std::unique_ptr<dtucker::DecompositionServer> server;
  // Called right before each new spec's first Submit (traced runs).
  std::function<void(const dtucker::ModelSpec&)> on_cold_submit;
};

std::unique_ptr<ServeInputs> SetUpServe(
    std::vector<Dataset> datasets,
    std::function<void(const dtucker::SolveRequest&)> hook) {
  dtucker::SetBlasThreads(1);
  auto in = std::make_unique<ServeInputs>();
  in->datasets = std::move(datasets);
  for (const Dataset& d : in->datasets) {
    for (Index r : kHotRanks) in->hot.push_back({Spec(d, r, 42), &d});
  }
  dtucker::ServerOptions so;
  so.num_workers = NumWorkers();
  so.cache.max_entries = static_cast<int>(in->hot.size()) + kSpareCacheEntries;
  so.engine.blas_threads = 1;
  so.job_begin_hook = std::move(hook);
  in->server = std::make_unique<dtucker::DecompositionServer>(so);
  for (const Hot& h : in->hot) {
    dtucker::SolveRequest req;
    req.model = h.spec;
    req.tensor = h.data->x;
    auto r = in->server->Solve(req);
    if (!r.ok() || !r.value().status.ok()) {
      CheckFailed("setup.solve." + h.spec.CanonicalKey(), "hot model failed");
    }
    CheckOrthonormal("setup.solve." + h.spec.CanonicalKey(),
                     r.value().model->decomposition);
    in->hot_models.push_back(r.value().model);
  }
  return in;
}

// One sampled query, kept for the post-run bitwise check.
struct Sample {
  std::size_t hot;
  QueryKind kind;
  std::vector<std::vector<Index>> idx;  // Elements, or fiber anchors.
  Index slice = 0;
  std::vector<double> answer;  // Flattened.
};

struct Pending {
  dtucker::JobId id;
  Clock::time_point due;
  SolveClass cls;
};

// Everything one run measures.
struct ServeRun {
  EndToEnd e;
  LatencyLog solves{3}, queries{3};
  std::vector<double> query_call_us[3];
  std::vector<double> late_ms;
  dtucker::ServerStats before, after;
};

void RunLoad(const Args& args, double seconds, ServeInputs* in,
             ServeRun* run) {
  // A cache hit completes at admission in microseconds, where scheduling noise
  // decides its median; in the geometric mean with the cold classes' it
  // would dominate solve_p50_ms's spread. It stays in the pooled tail.
  run->solves.ExcludeFromP50(kHit);
  dtucker::DecompositionServer& server = *in->server;
  std::mutex mu;  // Guards the latency logs, counters and the queue below.
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool closing = false;

  auto finish_solve = [&](const dtucker::Result<dtucker::JobResult>& r,
                          const Pending& p) {
    const double ms = SecondsSince(p.due) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    run->e.attempted += 1;
    if (!r.ok() || !r.value().status.ok() || r.value().model == nullptr) {
      run->e.failed += 1;
      return;
    }
    run->solves.Add(p.cls, ms);
    run->e.completed_ops += 1;
    run->e.rel_error_max =
        std::max(run->e.rel_error_max, r.value().model->relative_error);
  };
  std::vector<std::thread> waiters;
  for (int w = 0; w < NumWorkers(); ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closing || !pending.empty(); });
          if (pending.empty()) return;
          p = pending.front();
          pending.pop_front();
        }
        dtucker::TraceSpan span("layer.Wait");
        finish_solve(server.Wait(p.id), p);
      }
    });
  }

  dtucker::Rng rng(args.seed);
  // New specs differ from every earlier one in their iteration budget only.
  // The solves converge within a few sweeps, far below any of these
  // budgets, so every new spec is a cache miss that does the same work and
  // reaches the same error as the hot model of its (dataset, rank); a fresh
  // solver seed instead would make rel_error_max the maximum over hundreds
  // of random draws.
  int next_iters = kIters + 1;
  std::size_t hot_cursor = 0;
  std::vector<Sample> samples;
  long queries_done = 0;
  std::set<std::string> cold_keys;
  for (const Hot& h : in->hot) cold_keys.insert(h.spec.CanonicalKey());

  auto submit = [&](const dtucker::ModelSpec& spec, const Dataset& d,
                    Clock::time_point due, SolveClass cls) {
    dtucker::SolveRequest req;
    req.model = spec;
    req.tensor = d.x;
    dtucker::Result<dtucker::JobId> id = [&] {
      dtucker::TraceSpan span("layer.Submit");
      return server.Submit(req);
    }();
    if (!id.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      run->e.attempted += 1;
      run->e.failed += 1;
      return;
    }
    if (cls == kHit) {
      // Resolved at admission: Wait returns at once, on this thread.
      dtucker::TraceSpan span("layer.Wait");
      finish_solve(server.Wait(id.value()), {id.value(), due, cls});
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({id.value(), due, cls});
    }
    cv.notify_one();
  };

  run->before = server.Stats();
  dtucker::MetricsRegistry::Global().ResetAll();
  const Clock::time_point t0 = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRate));
  for (long k = 0;; ++k) {
    const Clock::time_point due = t0 + k * period;
    if (due - t0 >= std::chrono::duration<double>(seconds)) break;
    // Sleep to 2 ms short of the due time, then spin: a plain sleep wakes
    // ~0.1 ms late on average and, on a shared VM, sometimes a few ms
    // late; spinning throughout would cost the thread its wake-up priority.
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
    while (Clock::now() < due) {
    }
    run->late_ms.push_back(SecondsSince(due) * 1e3);
    const double u = rng.Uniform();
    const Hot& hot = in->hot[hot_cursor++ % in->hot.size()];
    if (u < kElementShare + kFiberShare + kSliceShare) {
      const QueryKind kind = u < kElementShare ? kElement
                             : u < kElementShare + kFiberShare ? kFiber
                                                               : kSlice;
      const std::vector<Index>& shape = hot.data->x->shape();
      Sample s{static_cast<std::size_t>(&hot - in->hot.data()), kind, {}, 0, {}};
      bool ok = false;
      const Clock::time_point c0 = Clock::now();
      if (kind == kElement) {
        dtucker::ElementQueryRequest req;
        req.indices = SeededIndices(shape, rng.UniformInt(1u << 30),
                                    kElementsPerBatch);
        dtucker::TraceSpan span("layer.QueryElement");
        auto r = server.QueryElement(hot.spec, req);
        if ((ok = r.ok())) {
          s.idx = std::move(req.indices);
          s.answer = std::move(r.value().values);
        }
      } else if (kind == kFiber) {
        dtucker::FiberQueryRequest req;
        req.mode = 2;
        req.anchors = SeededIndices(shape, rng.UniformInt(1u << 30),
                                    kFibersPerBatch);
        dtucker::TraceSpan span("layer.QueryFiber");
        auto r = server.QueryFiber(hot.spec, req);
        if ((ok = r.ok())) {
          s.idx = std::move(req.anchors);
          for (const auto& f : r.value().fibers) {
            s.answer.insert(s.answer.end(), f.begin(), f.end());
          }
        }
      } else {
        dtucker::SliceQueryRequest req;
        s.slice = static_cast<Index>(rng.UniformInt(
            static_cast<std::uint64_t>(hot.data->x->NumFrontalSlices())));
        req.slices = {s.slice};
        dtucker::TraceSpan span("layer.QuerySlice");
        auto r = server.QuerySlice(hot.spec, req);
        if ((ok = r.ok())) {
          const Matrix& m = r.value().slices[0];
          s.answer.assign(m.data(), m.data() + m.size());
        }
      }
      const Clock::time_point c1 = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      run->e.attempted += 1;
      if (!ok) {
        run->e.failed += 1;
        continue;
      }
      run->e.completed_ops += 1;
      run->queries.Add(kind, std::chrono::duration<double>(c1 - due).count() * 1e6);
      run->query_call_us[kind].push_back(
          std::chrono::duration<double>(c1 - c0).count() * 1e6);
      if (queries_done++ % kVerifyEvery == 0) samples.push_back(std::move(s));
      continue;
    }
    const double w = rng.Uniform();
    if (w < kHitShareOfWrites) {
      submit(hot.spec, *hot.data, due, kHit);
      continue;
    }
    const Dataset& d = in->datasets[rng.UniformInt(in->datasets.size())];
    const Index rank =
        kNewRanks[rng.UniformInt(sizeof(kNewRanks) / sizeof(kNewRanks[0]))];
    dtucker::ModelSpec spec = Spec(d, rank, 42);
    spec.max_iterations = next_iters++;
    cold_keys.insert(spec.CanonicalKey());
    if (in->on_cold_submit) in->on_cold_submit(spec);
    submit(spec, d, due, kCold);
    if (w >= kHitShareOfWrites + kNewShareOfWrites) {
      submit(spec, d, due, kFollower);  // Concurrent duplicate.
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closing = true;
  }
  cv.notify_all();
  for (std::thread& t : waiters) t.join();
  run->e.wall_s = SecondsSince(t0);
  run->after = server.Stats();

  // Post-run checks: sampled answers against the library's reconstruction
  // of the same cached model, and one Engine run per distinct cold spec.
  for (const Sample& s : samples) {
    const std::string op = "query." + in->hot[s.hot].spec.CanonicalKey();
    const TuckerDecomposition& dec = in->hot_models[s.hot]->decomposition;
    std::vector<double> want;
    if (s.kind == kElement) {
      want = ReadBack(op, dec, s.idx);
    } else if (s.kind == kFiber) {
      for (const auto& anchor : s.idx) {
        auto f = dtucker::ReconstructFiber(dec, 2, anchor);
        if (!f.ok()) CheckFailed(op, f.status().ToString());
        want.insert(want.end(), f.value().begin(), f.value().end());
      }
    } else {
      auto m = dtucker::ReconstructFrontalSlice(dec, s.slice);
      if (!m.ok()) CheckFailed(op, m.status().ToString());
      want.assign(m.value().data(), m.value().data() + m.value().size());
    }
    std::vector<double> got = s.answer;
    if (Corrupt("query_bitwise")) got[0] = std::nextafter(got[0], 1e300);
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0) {
      CheckFailed(op, "check=query_bitwise served answer differs from "
                      "Reconstruct* on the cached model");
    }
  }
  std::uint64_t expected = cold_keys.size();
  if (Corrupt("executed_count")) expected += 1;
  if (run->after.executed != expected) {
    CheckFailed("serve.stats",
                "check=executed_count serve.executed " +
                    std::to_string(run->after.executed) +
                    " != distinct cold specs " + std::to_string(expected));
  }
}

}  // namespace

RunResult RunServeMixed(const Args& args) {
  ServeRun run;
  std::vector<Dataset> datasets = MakeDatasets();
  std::unique_ptr<ServeInputs> in;
  run.e.setup_s = MedianSeconds(kSetupReps, [&] {
    if (in) datasets = std::move(in->datasets);
    in.reset();
    in = SetUpServe(std::move(datasets), nullptr);
  });
  ResetPeakRss();
  RunLoad(args, args.seconds, in.get(), &run);
  run.e.peak_rss_mib = PeakRssMib();
  std::fprintf(stderr,
               "generator late p50 %.3f p99 %.3f ms | query call p99 "
               "element %.0f fiber %.0f slice %.0f us\n",
               Quantile(run.late_ms, 0.5), Quantile(run.late_ms, 0.99),
               Quantile(run.query_call_us[kElement], 0.99),
               Quantile(run.query_call_us[kFiber], 0.99),
               Quantile(run.query_call_us[kSlice], 0.99));
  RunResult out;
  ReportEndToEnd(run.e, run.solves, &run.queries, &out);
  return out;
}

void TraceServeMixed(const Args& args, double budget_s, RunResult* out) {
  // Queue wait = Submit -> job_begin_hook, keyed by the spec (leaders only:
  // cache hits and followers never reach a worker).
  std::mutex mu;
  std::map<std::string, Clock::time_point> submitted;
  std::vector<double> wait_ms;
  ServeRun run;
  std::unique_ptr<ServeInputs> in =
      SetUpServe(MakeDatasets(), [&](const dtucker::SolveRequest& r) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        auto it = submitted.find(r.model.CanonicalKey());
        if (it != submitted.end()) {
          wait_ms.push_back(
              std::chrono::duration<double>(now - it->second).count() * 1e3);
        }
      });
  in->on_cold_submit = [&](const dtucker::ModelSpec& spec) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    submitted.emplace(spec.CanonicalKey(), now);
  };
  dtucker::SetTraceEnabled(true);
  RunLoad(args, budget_s, in.get(), &run);
  dtucker::SetTraceEnabled(false);
  dtucker::ClearTrace();
  std::vector<double> waits;
  {
    std::lock_guard<std::mutex> lock(mu);
    waits = wait_ms;
  }
  out->attempted += run.e.attempted;
  out->failed += run.e.failed;
  const dtucker::ServerStats& a = run.before;
  const dtucker::ServerStats& b = run.after;
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  Metrics& m = out->metrics;
  const Tail wait_tail = TailOf(waits);
  const dtucker::HistogramData exec =
      dtucker::MetricHistogram("serve.exec_ns").Snapshot();
  m.Set("serve.queue_wait_ms_p50", Median(waits), "ms");
  m.Set("serve.queue_wait_ms_tail", wait_tail.value, "ms");
  m.Set("serve.exec_ms_p50", exec.QuantileNs(0.5) * 1e-6, "ms");
  m.Set("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  m.Set("serve.executed", static_cast<double>(b.executed - a.executed), "count");
  m.Set("serve.dedup_followers",
        static_cast<double>(b.dedup_followers - a.dedup_followers), "count");
  m.Set("serve.evictions",
        static_cast<double>(b.cache.evictions - a.cache.evictions), "count");
  m.Set("serve.rejected", static_cast<double>(b.rejected - a.rejected), "count");
  m.Set("serve.query_element_us", Median(run.query_call_us[kElement]), "us");
  m.Set("serve.query_fiber_us", Median(run.query_call_us[kFiber]), "us");
  m.Set("serve.query_slice_us", Median(run.query_call_us[kSlice]), "us");
  const Tail late = TailOf(run.late_ms);
  m.Set("serve.gen_late_ms", late.value, "ms");
  std::fprintf(stderr,
               "serve-mixed layers (%d workers x 1 BLAS thread, %.0f ops/s "
               "offered): queue wait p50 %.3f ms, p%g %.3f ms of %zu | exec "
               "p50 %.2f ms, workers busy %.0f%% | generator late p%g %.3f "
               "ms\n",
               NumWorkers(), kRate, Median(waits), wait_tail.percentile,
               wait_tail.value, wait_tail.count, exec.QuantileNs(0.5) * 1e-6,
               100.0 * static_cast<double>(exec.sum_ns) * 1e-9 /
                   (NumWorkers() * run.e.wall_s),
               late.percentile, late.value);
}

}  // namespace perfbench
