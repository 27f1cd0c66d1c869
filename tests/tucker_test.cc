#include "tucker/tucker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "data/generators.h"
#include "largest_allocation_probe.h"
#include "linalg/blas.h"
#include "tensor/tensor_ops.h"
#include "tucker/hosvd.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

// Gaussian core and Gaussian (not orthonormalized) factors.
TuckerDecomposition RandomDecomposition(const std::vector<Index>& dims,
                                        const std::vector<Index>& ranks,
                                        uint64_t seed) {
  Rng rng(seed);
  TuckerDecomposition dec;
  dec.core = Tensor::GaussianRandom(ranks, rng);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    dec.factors.push_back(Matrix::GaussianRandom(dims[n], ranks[n], rng));
  }
  return dec;
}

// X = X^ + noise * (Gaussian tensor): a target the decomposition fits to
// about noise^2 relative error.
Tensor PerturbedReconstruction(const TuckerDecomposition& dec, double noise,
                               uint64_t seed) {
  Tensor x = dec.Reconstruct();
  Rng rng(seed);
  Tensor n = Tensor::GaussianRandom(x.shape(), rng);
  n *= noise * std::sqrt(x.SquaredNorm() / static_cast<double>(x.size()));
  x += n;
  return x;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(TuckerDecompositionTest, ReconstructExactForFullRank) {
  Rng rng(1);
  Tensor x = Tensor::GaussianRandom({4, 5, 6}, rng);
  // Full-rank HOSVD reproduces the tensor exactly.
  TuckerDecomposition dec = Hosvd(x, {4, 5, 6}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-18);
}

TEST(TuckerDecompositionTest, RanksAndByteSize) {
  Tensor x = MakeLowRankTensor({10, 12, 14}, {3, 4, 5}, 0.0, 2);
  TuckerDecomposition dec = Hosvd(x, {3, 4, 5}).ValueOrDie();
  EXPECT_EQ(dec.Ranks(), (std::vector<Index>{3, 4, 5}));
  const std::size_t expected =
      (3 * 4 * 5 + 10 * 3 + 12 * 4 + 14 * 5) * sizeof(double);
  EXPECT_EQ(dec.ByteSize(), expected);
}

TEST(OrthogonalErrorTest, MatchesDirectComputation) {
  Tensor x = MakeLowRankTensor({8, 9, 10}, {2, 3, 4}, 0.1, 3);
  TuckerDecomposition dec = StHosvd(x, {2, 3, 4}).ValueOrDie();
  const double direct = dec.RelativeErrorAgainst(x);
  const double fast = OrthogonalTuckerRelativeError(x.SquaredNorm(),
                                                    dec.core.SquaredNorm());
  EXPECT_NEAR(direct, fast, 1e-8);
}

TEST(HosvdTest, ExactOnExactlyLowRankTensor) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.0, 4);
  TuckerDecomposition dec = Hosvd(x, {3, 3, 3}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-16);
}

TEST(StHosvdTest, ExactOnExactlyLowRankTensor) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.0, 5);
  TuckerDecomposition dec = StHosvd(x, {3, 3, 3}).ValueOrDie();
  EXPECT_LT(dec.RelativeErrorAgainst(x), 1e-16);
}

TEST(HosvdTest, FactorsAreOrthonormal) {
  Tensor x = MakeLowRankTensor({9, 9, 9}, {4, 4, 4}, 0.2, 6);
  for (const auto& dec : {Hosvd(x, {2, 3, 4}).ValueOrDie(),
                          StHosvd(x, {2, 3, 4}).ValueOrDie()}) {
    for (const auto& f : dec.factors) {
      EXPECT_TRUE(AlmostEqual(MultiplyTN(f, f), Matrix::Identity(f.cols()),
                              1e-9));
    }
  }
}

TEST(TuckerAlsTest, RejectsBadRanks) {
  Tensor x({4, 4, 4});
  TuckerAlsOptions opt;
  opt.ranks = {2, 2};  // Wrong count.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
  opt.ranks = {2, 2, 9};  // Exceeds dimension.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
  opt.ranks = {0, 2, 2};  // Non-positive.
  EXPECT_FALSE(TuckerAls(x, opt).ok());
}

TEST(TuckerAlsTest, ExactRecovery) {
  Tensor x = MakeLowRankTensor({15, 12, 10}, {3, 3, 3}, 0.0, 7);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 10;
  TuckerStats stats;
  Result<TuckerDecomposition> dec = TuckerAls(x, opt, &stats);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-14);
  EXPECT_GE(stats.iterations, 1);
}

TEST(TuckerAlsTest, ErrorDecreasesMonotonically) {
  Tensor x = MakeLowRankTensor({14, 13, 12}, {5, 5, 5}, 0.3, 8);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 8;
  opt.tolerance = 0.0;  // Force all sweeps.
  TuckerStats stats;
  ASSERT_TRUE(TuckerAls(x, opt, &stats).ok());
  ASSERT_GE(stats.error_history.size(), 2u);
  for (std::size_t i = 1; i < stats.error_history.size(); ++i) {
    EXPECT_LE(stats.error_history[i], stats.error_history[i - 1] + 1e-12)
        << "sweep " << i;
  }
}

TEST(TuckerAlsTest, BeatsOrMatchesHosvdInError) {
  Tensor x = MakeLowRankTensor({16, 14, 12}, {6, 6, 6}, 0.4, 9);
  std::vector<Index> ranks = {3, 3, 3};
  TuckerAlsOptions opt;
  opt.ranks = ranks;
  opt.max_iterations = 15;
  Result<TuckerDecomposition> als = TuckerAls(x, opt);
  ASSERT_TRUE(als.ok());
  TuckerDecomposition hosvd = Hosvd(x, ranks).ValueOrDie();
  EXPECT_LE(als.value().RelativeErrorAgainst(x),
            hosvd.RelativeErrorAgainst(x) + 1e-12);
}

TEST(TuckerAlsTest, RandomInitConvergesToo) {
  Tensor x = MakeLowRankTensor({12, 12, 12}, {3, 3, 3}, 0.0, 10);
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.init = TuckerInit::kRandom;
  opt.max_iterations = 30;
  Result<TuckerDecomposition> dec = TuckerAls(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-10);
}

TEST(TuckerAlsTest, FourOrderTensor) {
  Tensor x = MakeLowRankTensor({8, 7, 6, 5}, {2, 2, 2, 2}, 0.0, 11);
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2, 2};
  Result<TuckerDecomposition> dec = TuckerAls(x, opt);
  ASSERT_TRUE(dec.ok());
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-14);
}

TEST(TuckerAlsTest, ExactSvdUpdateMatchesGramUpdate) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {6, 6, 6}, 0.3, 14);
  TuckerAlsOptions gram_opt;
  gram_opt.ranks = {3, 3, 3};
  gram_opt.max_iterations = 8;
  TuckerAlsOptions svd_opt = gram_opt;
  svd_opt.factor_update = FactorUpdate::kExactSvd;
  Result<TuckerDecomposition> g = TuckerAls(x, gram_opt);
  Result<TuckerDecomposition> s = TuckerAls(x, svd_opt);
  ASSERT_TRUE(g.ok() && s.ok());
  // Both converge to (essentially) the same objective value.
  EXPECT_NEAR(g.value().RelativeErrorAgainst(x),
              s.value().RelativeErrorAgainst(x), 1e-6);
}

TEST(TuckerAlsTest, RandomizedUpdateCloseToGramUpdate) {
  Tensor x = MakeLowRankTensor({20, 18, 16}, {4, 4, 4}, 0.2, 15);
  TuckerAlsOptions gram_opt;
  gram_opt.ranks = {4, 4, 4};
  gram_opt.max_iterations = 10;
  TuckerAlsOptions rnd_opt = gram_opt;
  rnd_opt.factor_update = FactorUpdate::kRandomized;
  Result<TuckerDecomposition> g = TuckerAls(x, gram_opt);
  Result<TuckerDecomposition> r = TuckerAls(x, rnd_opt);
  ASSERT_TRUE(g.ok() && r.ok());
  EXPECT_LT(r.value().RelativeErrorAgainst(x),
            g.value().RelativeErrorAgainst(x) * 1.1 + 1e-6);
}

TEST(TuckerAlsTest, ScaleInvariance) {
  // Scaling the input scales the core, leaves factors invariant (up to
  // sign), and keeps the relative error identical.
  Tensor x = MakeLowRankTensor({12, 11, 10}, {3, 3, 3}, 0.2, 16);
  Tensor x_scaled = x;
  x_scaled *= 1e6;
  TuckerAlsOptions opt;
  opt.ranks = {3, 3, 3};
  opt.max_iterations = 8;
  Result<TuckerDecomposition> a = TuckerAls(x, opt);
  Result<TuckerDecomposition> b = TuckerAls(x_scaled, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.value().RelativeErrorAgainst(x),
              b.value().RelativeErrorAgainst(x_scaled), 1e-10);
  Tensor scaled_core = a.value().core;
  scaled_core *= 1e6;
  // Factor sign ambiguity can flip core entries; compare norms.
  EXPECT_NEAR(scaled_core.FrobeniusNorm(), b.value().core.FrobeniusNorm(),
              1e-6 * scaled_core.FrobeniusNorm());
}

TEST(TuckerAlsTest, ToleranceStopsEarly) {
  Tensor x = MakeLowRankTensor({10, 10, 10}, {2, 2, 2}, 0.0, 12);
  TuckerAlsOptions opt;
  opt.ranks = {2, 2, 2};
  opt.max_iterations = 100;
  opt.tolerance = 1e-6;
  TuckerStats stats;
  ASSERT_TRUE(TuckerAls(x, opt, &stats).ok());
  EXPECT_LT(stats.iterations, 100);
}

// Rank sweep: error decreases as rank increases (property of nested
// approximation spaces; ALS is near-optimal here).
class TuckerRankSweepTest : public ::testing::TestWithParam<Index> {};

TEST_P(TuckerRankSweepTest, ErrorShrinksWithRank) {
  static Tensor* x = new Tensor(
      MakeLowRankTensor({14, 14, 14}, {8, 8, 8}, 0.2, 13));
  const Index r = GetParam();
  TuckerAlsOptions opt;
  opt.ranks = {r, r, r};
  opt.max_iterations = 10;
  Result<TuckerDecomposition> dec = TuckerAls(*x, opt);
  ASSERT_TRUE(dec.ok());
  const double err = dec.value().RelativeErrorAgainst(*x);

  TuckerAlsOptions opt_next = opt;
  opt_next.ranks = {r + 2, r + 2, r + 2};
  Result<TuckerDecomposition> dec_next = TuckerAls(*x, opt_next);
  ASSERT_TRUE(dec_next.ok());
  EXPECT_LE(dec_next.value().RelativeErrorAgainst(*x), err + 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Ranks, TuckerRankSweepTest,
                         ::testing::Values(2, 4, 6));

// The streamed RelativeErrorAgainst against the materialized oracle
// RelativeError(x, Reconstruct()). {70, 60, 50} has 4200 rows of 50 in the
// (prod_{n<N} I_n) x I_N view, so 1310-row blocks leave a 270-row tail.
struct StreamedErrorCase {
  std::vector<Index> dims;
  std::vector<Index> ranks;
};

const StreamedErrorCase kStreamedErrorCases[] = {
    {{37, 29}, {5, 7}},                   // Order 2.
    {{1, 13, 9}, {1, 4, 3}},              // Size-1 leading mode.
    {{12, 9, 1}, {4, 3, 1}},              // Size-1 last mode.
    {{6, 5, 4}, {6, 5, 4}},               // Rank = dim.
    {{9, 8, 7, 6}, {3, 4, 2, 5}},         // Order 4.
    {{70, 60, 50}, {5, 6, 7}},            // Several blocks plus a tail.
    {{3, 2, 70000}, {2, 2, 3}},           // I_N > block: one-row blocks.
};

TEST(StreamedErrorTest, MatchesMaterializedOracle) {
  uint64_t seed = 100;
  for (const StreamedErrorCase& c : kStreamedErrorCases) {
    const TuckerDecomposition dec = RandomDecomposition(c.dims, c.ranks, ++seed);
    for (double noise : {1e-3, 0.3}) {
      const Tensor x = PerturbedReconstruction(dec, noise, ++seed);
      const double oracle = RelativeError(x, dec.Reconstruct());
      const double streamed = dec.RelativeErrorAgainst(x);
      EXPECT_GT(oracle, 0.0);
      EXPECT_NEAR(streamed, oracle, 1e-12 * oracle)
          << "shape order " << c.dims.size() << " noise " << noise;
    }
    // An unrelated target: error near 1 + ||X^||^2 / ||X||^2.
    Rng rng(++seed);
    const Tensor y = Tensor::GaussianRandom(c.dims, rng);
    const double oracle = RelativeError(y, dec.Reconstruct());
    EXPECT_NEAR(dec.RelativeErrorAgainst(y), oracle, 1e-12 * oracle);
  }
}

TEST(StreamedErrorTest, ZeroTargetReportsZero) {
  const TuckerDecomposition dec = RandomDecomposition({5, 4, 3}, {2, 2, 2}, 7);
  EXPECT_EQ(dec.RelativeErrorAgainst(Tensor({5, 4, 3})), 0.0);
}

TEST(StreamedErrorTest, BitwiseIdenticalAcrossThreadCounts) {
  for (const StreamedErrorCase& c : kStreamedErrorCases) {
    const TuckerDecomposition dec = RandomDecomposition(c.dims, c.ranks, 21);
    const Tensor x = PerturbedReconstruction(dec, 0.05, 22);
    SetBlasThreads(1);
    const double serial = dec.RelativeErrorAgainst(x);
    for (int threads : {2, 4}) {
      SetBlasThreads(threads);
      const double threaded = dec.RelativeErrorAgainst(x);
      EXPECT_TRUE(BitEqual(threaded, serial))
          << threads << " threads: " << threaded << " vs " << serial;
    }
    SetBlasThreads(1);
  }
}

// No single allocation inside RelativeErrorAgainst exceeds the larger of
// T = core x_1 A_1 ... x_{N-1} A_{N-1} and one 64 Ki-double row block —
// in particular nothing the size of X is ever allocated.
TEST(StreamedErrorTest, AllocatesNothingTensorSized) {
  const std::vector<Index> dims = {70, 60, 50};
  const TuckerDecomposition dec = RandomDecomposition(dims, {5, 6, 7}, 31);
  const Tensor x = PerturbedReconstruction(dec, 0.05, 32);
  const std::size_t t_bytes = 70 * 60 * 7 * sizeof(double);
  const std::size_t block_bytes = (65536 / 50) * 50 * sizeof(double);
  const std::size_t bound = std::max(t_bytes, block_bytes);
  ASSERT_LT(bound, x.ByteSize() / 3);
  for (int threads : {1, 4}) {
    SetBlasThreads(threads);
    LargestAllocationProbe::Arm();
    const double err = dec.RelativeErrorAgainst(x);
    const std::size_t largest = LargestAllocationProbe::Disarm();
    EXPECT_GT(err, 0.0);
    EXPECT_GT(largest, 0u);
    EXPECT_LE(largest, bound) << threads << " threads";
  }
  SetBlasThreads(1);
}

}  // namespace
}  // namespace dtucker
