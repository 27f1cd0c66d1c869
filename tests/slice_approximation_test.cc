#include "dtucker/slice_approximation.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "data/generators.h"
#include "dtucker/dtucker.h"
#include "largest_allocation_probe.h"
#include "linalg/blas.h"

namespace dtucker {
namespace {

// A slice approximation with Gaussian (not orthonormal) factors, positive
// weights, and a per-slice rank cycling down from max_rank to 1.
SliceApproximation RandomApproximation(const std::vector<Index>& shape,
                                       Index max_rank, uint64_t seed) {
  Rng rng(seed);
  SliceApproximation approx;
  approx.shape = shape;
  approx.slice_rank = max_rank;
  Index num_slices = 1;
  for (std::size_t k = 2; k < shape.size(); ++k) num_slices *= shape[k];
  for (Index l = 0; l < num_slices; ++l) {
    const Index r = max_rank - l % max_rank;
    SliceSvd sl;
    sl.u = Matrix::GaussianRandom(shape[0], r, rng);
    sl.v = Matrix::GaussianRandom(shape[1], r, rng);
    for (Index j = 0; j < r; ++j) sl.s.push_back(rng.Uniform(0.5, 2.0));
    approx.slices.push_back(std::move(sl));
  }
  return approx;
}

// The dense approximation, built slice by slice (the materialized oracle).
Tensor DenseApproximation(const SliceApproximation& approx) {
  Tensor out(approx.shape);
  for (Index l = 0; l < approx.NumSlices(); ++l) {
    out.SetFrontalSlice(l,
                        approx.slices[static_cast<std::size_t>(l)].Reconstruct());
  }
  return out;
}

// Dense approximation plus noise * (Gaussian tensor).
Tensor PerturbedDense(const SliceApproximation& approx, double noise,
                      uint64_t seed) {
  Tensor x = DenseApproximation(approx);
  Rng rng(seed);
  Tensor n = Tensor::GaussianRandom(x.shape(), rng);
  n *= noise;
  x += n;
  return x;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct StreamedSliceCase {
  std::vector<Index> shape;
  Index max_rank;
};

const StreamedSliceCase kStreamedSliceCases[] = {
    {{20, 15, 10}, 4},      // Order 3.
    {{10, 9, 3, 4}, 3},     // Order 4.
    {{1, 7, 5}, 1},         // Size-1 leading mode, rank = dim.
    {{6, 5, 1}, 5},         // One slice, rank = min(I1, I2).
    {{9, 8, 1, 3, 2}, 2},   // Order 5 with a size-1 trailing mode.
};

TEST(SliceApproximationTest, RejectsMatrices) {
  Tensor x({5, 5});
  SliceApproximationOptions opt;
  EXPECT_FALSE(ApproximateSlices(x, opt).ok());
}

TEST(SliceApproximationTest, RejectsBadSliceRank) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom({6, 5, 4}, rng);
  SliceApproximationOptions opt;
  opt.slice_rank = 0;
  EXPECT_FALSE(ApproximateSlices(x, opt).ok());
  opt.slice_rank = 6;  // > min(6,5).
  EXPECT_FALSE(ApproximateSlices(x, opt).ok());
  opt.slice_rank = 5;
  EXPECT_TRUE(ApproximateSlices(x, opt).ok());
}

TEST(SliceApproximationTest, ExactForLowRankSlices) {
  // Each slice has rank <= 3 when the tensor has Tucker rank (3,3,*).
  Tensor x = MakeLowRankTensor({20, 15, 10}, {3, 3, 3}, 0.0, 2);
  SliceApproximationOptions opt;
  opt.slice_rank = 3;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx.value().NumSlices(), 10);
  EXPECT_LT(approx.value().RelativeErrorAgainst(x), 1e-16);
}

TEST(SliceApproximationTest, SliceFactorsAreOrthonormalAndSorted) {
  Tensor x = MakeLowRankTensor({18, 14, 6}, {4, 4, 4}, 0.1, 3);
  SliceApproximationOptions opt;
  opt.slice_rank = 4;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  for (const auto& sl : approx.value().slices) {
    EXPECT_TRUE(AlmostEqual(MultiplyTN(sl.u, sl.u), Matrix::Identity(4),
                            1e-9));
    EXPECT_TRUE(AlmostEqual(MultiplyTN(sl.v, sl.v), Matrix::Identity(4),
                            1e-9));
    for (std::size_t i = 0; i + 1 < sl.s.size(); ++i) {
      EXPECT_GE(sl.s[i], sl.s[i + 1]);
    }
  }
}

TEST(SliceApproximationTest, CompressionByteSize) {
  Tensor x = MakeLowRankTensor({40, 30, 20}, {5, 5, 5}, 0.05, 4);
  SliceApproximationOptions opt;
  opt.slice_rank = 5;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  // (I1 + I2 + 1) * Js * L doubles.
  const std::size_t expected = (40 + 30 + 1) * 5 * 20 * sizeof(double);
  EXPECT_EQ(approx.value().ByteSize(), expected);
  EXPECT_LT(approx.value().ByteSize(), x.ByteSize());
}

TEST(SliceApproximationTest, FourOrderSliceGrid) {
  Tensor x = MakeLowRankTensor({10, 9, 3, 4}, {2, 2, 2, 2}, 0.0, 5);
  SliceApproximationOptions opt;
  opt.slice_rank = 2;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  EXPECT_EQ(approx.value().NumSlices(), 12);
  EXPECT_EQ(approx.value().TrailingShape(), (std::vector<Index>{3, 4}));
  EXPECT_LT(approx.value().RelativeErrorAgainst(x), 1e-16);
}

TEST(SliceApproximationTest, SliceRangeMatchesFullRun) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.1, 6);
  SliceApproximationOptions opt;
  opt.slice_rank = 3;
  Result<SliceApproximation> full = ApproximateSlices(x, opt);
  ASSERT_TRUE(full.ok());
  Result<std::vector<SliceSvd>> range = ApproximateSliceRange(x, 2, 3, opt);
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range.value().size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(AlmostEqual(
        range.value()[static_cast<std::size_t>(k)].Reconstruct(),
        full.value().slices[static_cast<std::size_t>(k + 2)].Reconstruct(),
        1e-12));
  }
}

TEST(SliceApproximationTest, SliceRangeBoundsChecked) {
  Rng rng(7);
  Tensor x = Tensor::GaussianRandom({6, 6, 4}, rng);
  SliceApproximationOptions opt;
  opt.slice_rank = 2;
  EXPECT_FALSE(ApproximateSliceRange(x, 3, 2, opt).ok());
  EXPECT_FALSE(ApproximateSliceRange(x, -1, 1, opt).ok());
  EXPECT_TRUE(ApproximateSliceRange(x, 3, 1, opt).ok());
}

TEST(SliceSvdTest, HelperProducts) {
  Rng rng(8);
  Tensor x = Tensor::GaussianRandom({7, 6, 2}, rng);
  SliceApproximationOptions opt;
  opt.slice_rank = 3;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  const SliceSvd& sl = approx.value().slices[0];
  Matrix us = sl.UTimesS();
  Matrix vs = sl.VTimesS();
  for (Index j = 0; j < 3; ++j) {
    for (Index i = 0; i < 7; ++i) {
      EXPECT_NEAR(us(i, j), sl.u(i, j) * sl.s[static_cast<std::size_t>(j)],
                  1e-12);
    }
    for (Index i = 0; i < 6; ++i) {
      EXPECT_NEAR(vs(i, j), sl.v(i, j) * sl.s[static_cast<std::size_t>(j)],
                  1e-12);
    }
  }
  EXPECT_TRUE(AlmostEqual(sl.Reconstruct(), MultiplyNT(us, sl.v), 1e-12));
}

TEST(SliceApproximationTest, ExactMethodMatchesTruncatedSvd) {
  Tensor x = MakeLowRankTensor({20, 16, 6}, {5, 5, 5}, 0.2, 11);
  SliceApproximationOptions opt;
  opt.slice_rank = 4;
  opt.method = SliceSvdMethod::kExact;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  double direct_err = 0, total = 0;
  for (Index l = 0; l < 6; ++l) {
    Matrix slice = x.FrontalSlice(l);
    SvdResult svd = ThinSvd(slice);
    svd.Truncate(4);
    direct_err += (slice - svd.Reconstruct()).SquaredNorm();
    total += slice.SquaredNorm();
  }
  EXPECT_NEAR(approx.value().RelativeErrorAgainst(x), direct_err / total,
              1e-10);
}

TEST(SliceApproximationTest, AdaptiveRankVariesWithSliceComplexity) {
  // First half of the slices are exactly rank-1; the rest are dense noise.
  Rng rng(12);
  Tensor x({20, 15, 8});
  for (Index l = 0; l < 8; ++l) {
    Matrix slice(20, 15);
    if (l < 4) {
      Matrix u = Matrix::GaussianRandom(20, 1, rng);
      Matrix v = Matrix::GaussianRandom(15, 1, rng);
      slice = MultiplyNT(u, v);
    } else {
      slice = Matrix::GaussianRandom(20, 15, rng);
    }
    x.SetFrontalSlice(l, slice);
  }
  SliceApproximationOptions opt;
  opt.slice_rank = 8;
  opt.method = SliceSvdMethod::kExact;
  opt.adaptive_tolerance = 1e-6;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());
  for (Index l = 0; l < 4; ++l) {
    EXPECT_EQ(approx.value().slices[static_cast<std::size_t>(l)].s.size(), 1u)
        << "rank-1 slice " << l;
  }
  for (Index l = 4; l < 8; ++l) {
    EXPECT_EQ(approx.value().slices[static_cast<std::size_t>(l)].s.size(), 8u)
        << "noise slice " << l;
  }
}

TEST(SliceApproximationTest, AdaptiveApproximationStillDecomposes) {
  // D-Tucker consumes variable-rank slices transparently.
  Tensor x = MakeLowRankTensor({18, 15, 10}, {3, 3, 3}, 0.05, 13);
  SliceApproximationOptions sopt;
  sopt.slice_rank = 8;
  sopt.adaptive_tolerance = 1e-4;
  Result<SliceApproximation> approx = ApproximateSlices(x, sopt);
  ASSERT_TRUE(approx.ok());

  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 10;
  Result<TuckerDecomposition> dec =
      DTuckerFromApproximation(approx.value(), opt);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.02);
}

TEST(SliceApproximationTest, NoisySlicesNearOptimal) {
  // With noise, the per-slice rSVD error should be close to the exact
  // truncated-SVD error of the slices.
  Tensor x = MakeLowRankTensor({30, 25, 8}, {4, 4, 4}, 0.2, 9);
  SliceApproximationOptions opt;
  opt.slice_rank = 4;
  opt.power_iterations = 2;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  ASSERT_TRUE(approx.ok());

  double exact_err = 0, total = 0;
  for (Index l = 0; l < 8; ++l) {
    Matrix slice = x.FrontalSlice(l);
    SvdResult svd = ThinSvd(slice);
    svd.Truncate(4);
    exact_err += (slice - svd.Reconstruct()).SquaredNorm();
    total += slice.SquaredNorm();
  }
  const double rsvd_err = approx.value().RelativeErrorAgainst(x);
  EXPECT_LT(rsvd_err, (exact_err / total) * 1.1 + 1e-12);
}

TEST(SliceStreamedErrorTest, MatchesMaterializedOracle) {
  uint64_t seed = 200;
  for (const StreamedSliceCase& c : kStreamedSliceCases) {
    const SliceApproximation approx =
        RandomApproximation(c.shape, c.max_rank, ++seed);
    for (double noise : {1e-3, 0.5}) {
      const Tensor x = PerturbedDense(approx, noise, ++seed);
      const double oracle = RelativeError(x, DenseApproximation(approx));
      EXPECT_GT(oracle, 0.0);
      EXPECT_NEAR(approx.RelativeErrorAgainst(x), oracle, 1e-12 * oracle)
          << "order " << c.shape.size() << " noise " << noise;
    }
  }
}

TEST(SliceStreamedErrorTest, BitwiseIdenticalAcrossThreadCounts) {
  for (const StreamedSliceCase& c : kStreamedSliceCases) {
    const SliceApproximation approx = RandomApproximation(c.shape, c.max_rank, 41);
    const Tensor x = PerturbedDense(approx, 0.1, 42);
    SetBlasThreads(1);
    const double serial = approx.RelativeErrorAgainst(x);
    for (int threads : {2, 4}) {
      SetBlasThreads(threads);
      const double threaded = approx.RelativeErrorAgainst(x);
      EXPECT_TRUE(BitEqual(threaded, serial))
          << threads << " threads: " << threaded << " vs " << serial;
    }
    SetBlasThreads(1);
  }
}

// The only buffer the size of a slice is the I1 x I2 scratch; nothing the
// size of X is allocated.
TEST(SliceStreamedErrorTest, AllocatesAtMostOneSlice) {
  const SliceApproximation approx = RandomApproximation({40, 30, 6, 5}, 4, 51);
  const Tensor x = PerturbedDense(approx, 0.1, 52);
  const std::size_t slice_bytes = 40 * 30 * sizeof(double);
  for (int threads : {1, 4}) {
    SetBlasThreads(threads);
    LargestAllocationProbe::Arm();
    const double err = approx.RelativeErrorAgainst(x);
    const std::size_t largest = LargestAllocationProbe::Disarm();
    EXPECT_GT(err, 0.0);
    EXPECT_GT(largest, 0u);
    EXPECT_LE(largest, slice_bytes) << threads << " threads";
  }
  SetBlasThreads(1);
}

}  // namespace
}  // namespace dtucker
