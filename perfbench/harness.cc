#include "harness.h"

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/memory.h"
#include "common/rng.h"
#include "common/trace.h"
#include "data/datasets.h"
#include "linalg/blas.h"
#include "tucker/reconstruct.h"

namespace perfbench {

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::ToJson() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // Non-finite values are not JSON; a workload never produces one unless
    // it is broken, and then the reader should see the null.
    if (std::isfinite(entries_[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    os << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

namespace {
std::string g_workload;
std::string g_corrupt;
}  // namespace

void SetCheckContext(const Args& args) {
  g_workload = args.workload;
  g_corrupt = args.corrupt;
}

bool Corrupt(const char* check) { return g_corrupt == check; }

void CheckFailed(const std::string& op, const std::string& detail) {
  std::fprintf(stderr, "CHECK FAILED workload=%s op=%s %s\n",
               g_workload.c_str(), op.c_str(), detail.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

namespace {

double OrthonormalityError(const TuckerDecomposition& dec) {
  double worst = 0;
  for (const Matrix& a : dec.factors) {
    const Matrix g = dtucker::Gram(a);
    for (Index j = 0; j < g.cols(); ++j) {
      for (Index i = 0; i < g.rows(); ++i) {
        worst = std::max(worst, std::fabs(g(i, j) - (i == j ? 1.0 : 0.0)));
      }
    }
  }
  return worst;
}

bool SameBits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool BitwiseEqual(const TuckerDecomposition& a, const TuckerDecomposition& b) {
  if (a.core.shape() != b.core.shape() || a.factors.size() != b.factors.size())
    return false;
  if (!SameBits(a.core.data(), b.core.data(),
                static_cast<std::size_t>(a.core.size())))
    return false;
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    const Matrix& fa = a.factors[n];
    const Matrix& fb = b.factors[n];
    if (fa.rows() != fb.rows() || fa.cols() != fb.cols()) return false;
    if (!SameBits(fa.data(), fb.data(), static_cast<std::size_t>(fa.size())))
      return false;
  }
  return true;
}

// Flips the lowest mantissa bit of the first core entry.
void FlipOneBit(TuckerDecomposition* dec) {
  std::uint64_t bits;
  std::memcpy(&bits, dec->core.data(), sizeof(bits));
  bits ^= 1u;
  std::memcpy(dec->core.data(), &bits, sizeof(bits));
}

}  // namespace

void CheckOrthonormal(const std::string& op, TuckerDecomposition dec) {
  if (Corrupt("orthonormal")) dec.factors[0](0, 0) += 1e-6;
  const double err = OrthonormalityError(dec);
  if (!(err <= 1e-10)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "check=orthonormal max|AtA-I|=%.3e > 1e-10",
                  err);
    CheckFailed(op, buf);
  }
}

void CheckBitwise(const char* check, const std::string& op,
                  TuckerDecomposition got, const TuckerDecomposition& want) {
  if (Corrupt(check)) FlipOneBit(&got);
  if (!BitwiseEqual(got, want)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "check=%s decomposition differs from the reference "
                  "(core[0] %.17g vs %.17g)",
                  check, got.core.size() ? got.core.data()[0] : 0.0,
                  want.core.size() ? want.core.data()[0] : 0.0);
    CheckFailed(op, buf);
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

Tail TailOf(const std::vector<double>& v) {
  Tail t;
  t.count = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0 || p == 50.0) {
      t.percentile = p;
      t.value = Quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

double LatencyLog::ClassGeoMedian() const {
  std::vector<double> medians;
  for (std::size_t k = 0; k < by_class_.size(); ++k) {
    if (in_p50_[k / cores_] && !by_class_[k].empty()) {
      medians.push_back(Median(by_class_[k]));
    }
  }
  return GeoMean(medians);
}

double LatencyLog::WithinClassSpread() const {
  double sum = 0;
  int n = 0;
  for (const auto& c : by_class_) {
    if (c.size() < 4) continue;
    sum += (Quantile(c, 0.75) - Quantile(c, 0.25)) / Median(c);
    ++n;
  }
  return n ? sum / n : 0;
}

void ReportEndToEnd(const EndToEnd& e, const LatencyLog& solves_ms,
                    const LatencyLog* queries_us, RunResult* out) {
  const Tail st = solves_ms.PooledTail();
  Metrics& m = out->metrics;
  m.Set("setup_s", e.setup_s, "s");
  m.Set("ops_per_s", static_cast<double>(e.completed_ops) / e.wall_s, "1/s");
  m.Set("solve_p50_ms", solves_ms.ClassGeoMedian(), "ms");
  m.Set("ok_share",
        e.attempted > 0
            ? 1.0 - static_cast<double>(e.failed) / static_cast<double>(e.attempted)
            : 0.0,
        "share");
  m.Set("rel_error_max", e.rel_error_max, "ratio");
  m.Set("peak_rss_mib", e.peak_rss_mib, "MiB");
  out->attempted += e.attempted;
  out->failed += e.failed;
  std::fprintf(stderr,
               "timed %.2f s: %ld ops attempted, %ld failed | solve tail "
               "p%g of %zu samples = %.3f ms | within-group spread %.3f\n",
               e.wall_s, e.attempted, e.failed, st.percentile, st.count,
               st.value, solves_ms.WithinClassSpread());
  if (queries_us != nullptr) {
    const Tail qt = queries_us->PooledTail();
    m.Set("query_p50_us", queries_us->ClassGeoMedian(), "us");
    m.Set("query_tail_us", qt.value, "us");
    std::fprintf(stderr,
                 "query tail = p%g of %zu samples | within-group spread %.3f\n",
                 qt.percentile, qt.count, queries_us->WithinClassSpread());
  }
}

std::vector<std::vector<Index>> SeededIndices(const std::vector<Index>& shape,
                                              std::uint64_t seed, int count) {
  dtucker::Rng rng(seed);
  std::vector<std::vector<Index>> out(static_cast<std::size_t>(count));
  for (auto& idx : out) {
    for (Index d : shape) {
      idx.push_back(static_cast<Index>(rng.UniformInt(static_cast<std::uint64_t>(d))));
    }
  }
  return out;
}

std::vector<double> ReadBack(const std::string& op,
                             const TuckerDecomposition& dec,
                             const std::vector<std::vector<Index>>& indices) {
  auto r = dtucker::ReconstructElements(dec, indices);
  if (!r.ok()) CheckFailed(op, "check=readback " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void CheckReadBack(const std::string& op, std::vector<double> got,
                   const std::vector<double>& want) {
  if (Corrupt("readback")) got[0] = std::nextafter(got[0], 1e300);
  if (got.size() != want.size() ||
      (!got.empty() &&
       std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "check=readback answers differ from the reference (%.17g vs "
                  "%.17g)",
                  got.empty() ? 0.0 : got[0], want.empty() ? 0.0 : want[0]);
    CheckFailed(op, buf);
  }
}

double MedianSeconds(int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

CoreRotation::CoreRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cores_.push_back(c);
  }
}

void CoreRotation::Next() {
  if (cores_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cores_[next_++ % cores_.size()], &set);
  pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

void CoreRotation::Release() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cores_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
  pinned_ = false;
}

std::string WorkDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  const std::string exe(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  const std::string dir = exe.substr(0, exe.rfind('/')) + "/work";
  mkdir(dir.c_str(), 0755);
  return dir;
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMib() {
  return static_cast<double>(dtucker::PeakRssBytes()) / (1024.0 * 1024.0);
}

std::vector<Analog> MakeE1Analogs(std::uint64_t seed, bool memoize) {
  static std::uint64_t last_seed = 0;
  static std::vector<Analog> last;
  if (memoize && !last.empty() && last_seed == seed) return last;
  std::vector<Analog> out;
  for (const dtucker::DatasetSpec& spec : dtucker::BenchmarkDatasets()) {
    auto x = dtucker::MakeDataset(spec.name, 0.8, seed);
    if (!x.ok()) {
      std::fprintf(stderr, "dataset %s: %s\n", spec.name.c_str(),
                   x.status().ToString().c_str());
      std::exit(1);
    }
    out.push_back({spec.name, std::move(x).ValueOrDie()});
  }
  if (memoize) {
    last_seed = seed;
    last = out;
  }
  return out;
}

std::vector<Index> ClampedRanks(const Tensor& x, Index rank) {
  std::vector<Index> r;
  for (Index n = 0; n < x.order(); ++n) r.push_back(std::min(rank, x.dim(n)));
  return r;
}

std::vector<SpanTotals> SumSpans(const std::vector<const char*>& names) {
  struct Ev {
    std::size_t which;
    std::uint64_t start, end;
  };
  std::map<std::uint32_t, std::vector<Ev>> by_tid;
  for (const auto& s : dtucker::internal_trace::SnapshotEvents()) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      if (s.event.name != nullptr && std::strcmp(s.event.name, names[k]) == 0) {
        by_tid[s.tid].push_back(
            {k, s.event.start_ns, s.event.start_ns + s.event.dur_ns});
        break;
      }
    }
  }
  std::vector<SpanTotals> out(names.size());
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<const Ev*> open;
    for (const Ev& e : evs) {
      while (!open.empty() && open.back()->end <= e.start) open.pop_back();
      const double dur = static_cast<double>(e.end - e.start) * 1e-9;
      out[e.which].total_s += dur;
      out[e.which].self_s += dur;
      out[e.which].count += 1;
      if (!open.empty()) out[open.back()->which].self_s -= dur;
      open.push_back(&e);
    }
  }
  return out;
}

}  // namespace perfbench
