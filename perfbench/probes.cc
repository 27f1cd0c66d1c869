// Kernel reference probes: each kernel timed on its own, at the exact
// shapes D-Tucker hands it on the E1 analogs, next to square-GEMM peak
// measured in the same run. Rates are computed flops over measured time.
#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "harness.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "rsvd/rsvd.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr Index kSliceRank = 10;   // E1's rank; Js = max(J1, J2).
constexpr Index kSketch = 15;      // Js + oversampling 5: the rSVD's n.

// Median seconds of one call, over at least 5 calls and 20 ms.
template <typename Fn>
double TimeCall(Fn&& fn) {
  std::vector<double> s;
  const Clock::time_point start = Clock::now();
  while (s.size() < 5 || SecondsSince(start) < 0.02) {
    const Clock::time_point t0 = Clock::now();
    fn();
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

// Householder QR of a rows x w panel plus forming its thin Q.
double QrFlops(double rows, double w) {
  return 4.0 * rows * w * w - 4.0 / 3.0 * w * w * w;
}

}  // namespace

double RsvdFlops(double m, double n, double l) {
  return 3.0 * 2.0 * m * n * l + 2.0 * QrFlops(m, l) + QrFlops(n, l) +
         2.0 * (m + n) * l * l;
}

void RunKernelProbes(const std::vector<Analog>& analogs, RunResult* out) {
  dtucker::SetBlasThreads(1);
  dtucker::Rng rng(12345);
  Metrics& m = out->metrics;

  constexpr Index kPeak = 384;
  const Matrix pa = Matrix::GaussianRandom(kPeak, kPeak, rng);
  const Matrix pb = Matrix::GaussianRandom(kPeak, kPeak, rng);
  Matrix pc(kPeak, kPeak);
  const double peak_s = TimeCall([&] {
    dtucker::Gemm(dtucker::Trans::kNo, dtucker::Trans::kNo, 1.0, pa, pb, 0.0,
                  &pc);
  });
  const double peak = 2.0 * kPeak * kPeak * kPeak / peak_s * 1e-9;
  m.Set("linalg.gemm_peak_gflops", peak, "GF/s");

  // Slice-count weighted: the mix one pass over all six analogs runs.
  double gemm_f = 0, gemm_s = 0, qr_f = 0, qr_s = 0, rsvd_f = 0, rsvd_s = 0;
  double slices = 0, eig_s = 0, gram_f = 0, gram_s = 0;
  for (const Analog& a : analogs) {
    const Index i1 = a.x.dim(0), i2 = a.x.dim(1);
    const double l = static_cast<double>(a.x.NumFrontalSlices());
    const Matrix slice = a.x.FrontalSlice(0);
    const Matrix omega = Matrix::GaussianRandom(i2, kSketch, rng);
    Matrix y(i1, kSketch);
    const double tg = TimeCall([&] {
      dtucker::Gemm(dtucker::Trans::kNo, dtucker::Trans::kNo, 1.0, slice,
                    omega, 0.0, &y);
    });
    gemm_f += l * 2.0 * i1 * i2 * kSketch;
    gemm_s += l * tg;
    const double tq = TimeCall([&] { (void)dtucker::QrOrthonormalize(y); });
    qr_f += l * QrFlops(i1, kSketch);
    qr_s += l * tq;
    dtucker::RsvdOptions ro;
    ro.rank = kSliceRank;
    const double tr = TimeCall([&] { (void)dtucker::RandomizedSvd(slice, ro); });
    rsvd_f += l * RsvdFlops(i1, i2, kSketch);
    rsvd_s += l * tr;
    slices += l;

    // Initialization's mode-1 update: top-Js eigenvectors of an I1 x I1
    // Gram, and the trailing modes' ModeGram of Z (Js x Js x L).
    const Matrix wide = Matrix::GaussianRandom(i1, 4 * i1, rng);
    const Matrix gram = dtucker::MultiplyNT(wide, wide);
    eig_s += TimeCall([&] { (void)dtucker::TopEigenvectorsSym(gram, kSliceRank); });
    dtucker::Tensor z = dtucker::Tensor::GaussianRandom(
        {kSliceRank, kSliceRank, static_cast<Index>(l)}, rng);
    gram_s += TimeCall([&] { (void)dtucker::ModeGram(z, 2); });
    gram_f += 2.0 * l * l * kSliceRank * kSliceRank;
  }
  const double n = static_cast<double>(analogs.size());
  m.Set("linalg.gemm_thin_gflops", gemm_f / gemm_s * 1e-9, "GF/s");
  m.Set("linalg.qr_thin_gflops", qr_f / qr_s * 1e-9, "GF/s");
  m.Set("rsvd.slice_us", rsvd_s / slices * 1e6, "us");
  m.Set("rsvd.slice_gflops", rsvd_f / rsvd_s * 1e-9, "GF/s");
  m.Set("linalg.eig_us", eig_s / n * 1e6, "us");
  m.Set("tensor.modegram_gflops", gram_f / gram_s * 1e-9, "GF/s");
  std::fprintf(stderr,
               "probes (1 thread, computed flops): gemm peak %.1f GF/s | thin "
               "gemm %.1f | thin qr %.1f | rsvd slice %.1f us %.1f GF/s | eig "
               "%.0f us | modegram %.1f GF/s\n",
               peak, gemm_f / gemm_s * 1e-9, qr_f / qr_s * 1e-9,
               rsvd_s / slices * 1e6, rsvd_f / rsvd_s * 1e-9, eig_s / n * 1e6,
               gram_f / gram_s * 1e-9);
  out->attempted += 1;
}

}  // namespace perfbench
