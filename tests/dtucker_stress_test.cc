// Stress tests for the matricization-free, slice-parallel iteration phase:
// ModeGram vs. Gram-of-Unfold equivalence over a shape sweep, Unfold/Fold
// roundtrips covering the mode-0 fast path, and bitwise thread-determinism
// of ModeGram, the slice-parallel carrier/projected-core builders, one
// DTuckerSweep, and the full DTucker pipeline (factors and core identical
// across 1/2/8 BLAS threads) under every QrVariant, plus Engine-level fit
// parity, thread determinism and sharded rank-count identity of each pinned
// QR variant. Runs under both `ctest -L tsan` (-DDTUCKER_SANITIZE=thread)
// and `ctest -L asan` (-DDTUCKER_SANITIZE=address).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "dtucker/slice_approximation.h"
#include "linalg/blas.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace dtucker {
namespace {

bool BitwiseEqualMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      if (a(i, j) != b(i, j)) return false;
    }
  }
  return true;
}

bool BitwiseEqualTensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

void ExpectBitwiseEqualDecomposition(const TuckerDecomposition& a,
                                     const TuckerDecomposition& b,
                                     const std::string& what) {
  ASSERT_EQ(a.factors.size(), b.factors.size()) << what;
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    EXPECT_TRUE(BitwiseEqualMatrix(a.factors[n], b.factors[n]))
        << what << ": factor " << n;
  }
  EXPECT_TRUE(BitwiseEqualTensor(a.core, b.core)) << what << ": core";
}

// Every QR strategy a caller can pin through DTuckerOptions::variants.qr.
const std::vector<std::pair<QrVariant, const char*>> kQrVariants = {
    {QrVariant::kAuto, "qr=auto"},
    {QrVariant::kBlocked, "qr=blocked"},
    {QrVariant::kScalar, "qr=scalar"},
};

class DTuckerStressTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBlasThreads(1); }
};

// Shapes covering every mode position (first / middle / last), odd sizes,
// singleton modes, orders 3-5, and back-slab counts on both sides of the
// fixed chunk count.
const std::vector<std::vector<Index>> kGramShapes = {
    {4, 5, 6},       {7, 3, 2},    {5, 5, 5},     {1, 6, 4},  {6, 1, 4},
    {6, 4, 1},       {3, 4, 2, 5}, {2, 3, 4, 5},  {9, 2, 11}, {4, 3, 2, 2, 3},
    {16, 12, 20},    {8, 8, 3},    {13, 7, 2, 4},
};

TEST_F(DTuckerStressTest, ModeGramMatchesGramOfUnfold) {
  Rng rng(7);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      Matrix g = ModeGram(x, mode);
      Matrix unf = Unfold(x, mode);
      Matrix ref(unf.rows(), unf.rows());
      Gemm(Trans::kNo, Trans::kYes, 1.0, unf, unf, 0.0, &ref);
      ASSERT_EQ(g.rows(), x.dim(mode));
      ASSERT_EQ(g.cols(), x.dim(mode));
      double scale = std::max(1.0, ref.MaxAbs());
      for (Index j = 0; j < g.cols(); ++j) {
        for (Index i = 0; i < g.rows(); ++i) {
          EXPECT_NEAR(g(i, j), ref(i, j), 1e-12 * scale)
              << "shape " << x.ShapeString() << " mode " << mode << " at ("
              << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST_F(DTuckerStressTest, ModeGramBitwiseDeterministicAcrossThreads) {
  Rng rng(11);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      SetBlasThreads(1);
      Matrix g1 = ModeGram(x, mode);
      for (int threads : {2, 8}) {
        SetBlasThreads(threads);
        Matrix gt = ModeGram(x, mode);
        EXPECT_TRUE(BitwiseEqualMatrix(g1, gt))
            << "shape " << x.ShapeString() << " mode " << mode << " threads "
            << threads;
      }
      SetBlasThreads(1);
    }
  }
}

TEST_F(DTuckerStressTest, UnfoldFoldRoundtripEveryMode) {
  Rng rng(13);
  for (const auto& shape : kGramShapes) {
    Tensor x = Tensor::GaussianRandom(shape, rng);
    for (Index mode = 0; mode < x.order(); ++mode) {
      // Mode 0 exercises the layout-preserving memcpy fast path.
      Matrix unf = Unfold(x, mode);
      Tensor back = Fold(unf, mode, x.shape());
      EXPECT_TRUE(BitwiseEqualTensor(x, back))
          << "shape " << x.ShapeString() << " mode " << mode;
    }
  }
}

SliceApproximation MakeApprox(const std::vector<Index>& shape, Index js,
                              uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::GaussianRandom(shape, rng);
  SliceApproximationOptions opt;
  opt.slice_rank = js;
  Result<SliceApproximation> approx = ApproximateSlices(x, opt);
  EXPECT_TRUE(approx.ok());
  return std::move(approx).value();
}

TEST_F(DTuckerStressTest, CarrierBuildersBitwiseDeterministicAcrossThreads) {
  const std::vector<Index> shape = {14, 12, 5, 2};
  SliceApproximation approx = MakeApprox(shape, 4, 17);
  Rng rng(19);
  Matrix a1 = Matrix::GaussianRandom(14, 3, rng);
  Matrix a2 = Matrix::GaussianRandom(12, 3, rng);

  SetBlasThreads(1);
  Tensor t1, t2, z;
  internal_dtucker::BuildModeOneCarrierInto(approx, a2, 1.0, &t1);
  internal_dtucker::BuildModeTwoCarrierInto(approx, a1, 1.0, &t2);
  internal_dtucker::BuildProjectedCoreInto(approx, a1, a2, 1.0, &z);
  for (int threads : {2, 8}) {
    SetBlasThreads(threads);
    Tensor u1, u2, w;
    internal_dtucker::BuildModeOneCarrierInto(approx, a2, 1.0, &u1);
    internal_dtucker::BuildModeTwoCarrierInto(approx, a1, 1.0, &u2);
    internal_dtucker::BuildProjectedCoreInto(approx, a1, a2, 1.0, &w);
    EXPECT_TRUE(BitwiseEqualTensor(t1, u1)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(t2, u2)) << "threads " << threads;
    EXPECT_TRUE(BitwiseEqualTensor(z, w)) << "threads " << threads;
  }
}

TEST_F(DTuckerStressTest, SweepBitwiseDeterministicAcrossThreads) {
  const std::vector<Index> shape = {16, 15, 4, 3};
  const std::vector<Index> ranks = {5, 4, 3, 2};
  SliceApproximation approx = MakeApprox(shape, 6, 23);

  for (const auto& [qr, name] : kQrVariants) {
    auto run = [&]() {
      DTuckerOptions opt;
      opt.tucker.ranks = ranks;
      opt.variants.qr = qr;
      Result<TuckerDecomposition> init = DTuckerInitializeOnly(approx, opt);
      EXPECT_TRUE(init.ok());
      TuckerDecomposition dec = std::move(init).value();
      internal_dtucker::SweepWorkspace ws;
      internal_dtucker::DTuckerSweep(approx, ranks, &dec.factors, &dec.core,
                                     &ws, 1.0, /*ctx=*/nullptr, qr);
      return dec;
    };

    SetBlasThreads(1);
    TuckerDecomposition ref = run();
    for (int threads : {2, 8}) {
      SetBlasThreads(threads);
      ExpectBitwiseEqualDecomposition(
          ref, run(), std::string(name) + " threads " +
                          std::to_string(threads));
    }
  }
}

TEST_F(DTuckerStressTest, FullDTuckerBitwiseDeterministicAcrossThreads) {
  Rng rng(29);
  Tensor x = Tensor::GaussianRandom({18, 16, 6, 2}, rng);

  for (const auto& [qr, name] : kQrVariants) {
    auto run = [&](int threads) {
      SetBlasThreads(threads);
      DTuckerOptions opt;
      opt.tucker.ranks = {5, 4, 3, 2};
      opt.slice_rank = 6;
      opt.tucker.max_iterations = 4;
      opt.num_threads = threads;  // Approximation-phase pool.
      opt.variants.qr = qr;
      Result<TuckerDecomposition> dec = DTucker(x, opt);
      EXPECT_TRUE(dec.ok());
      return std::move(dec).value();
    };

    TuckerDecomposition ref = run(1);
    for (int threads : {2, 8}) {
      ExpectBitwiseEqualDecomposition(
          ref, run(threads), std::string(name) + " threads " +
                                 std::to_string(threads));
    }
  }
}

// Engine-level checks of the pinnable solver plan
// (EngineOptions::method_options.variants). The suite keeps the name it had
// when an adaptive policy could also pick the plan, so the checks stay
// traceable across that layer's removal.

Result<EngineRun> SolveWithQr(const Tensor& x, QrVariant qr,
                              const std::vector<Index>& ranks,
                              int threads = 0, int num_ranks = 0) {
  EngineOptions opt;
  opt.method = TuckerMethod::kDTucker;
  opt.method_options.tucker.ranks = ranks;
  opt.method_options.tucker.max_iterations = 12;
  opt.method_options.variants.qr = qr;
  opt.measure_error = true;
  if (threads > 0) {
    opt.blas_threads = threads;
    opt.method_options.num_threads = threads;
  }
  opt.num_ranks = num_ranks;
  Engine engine(std::move(opt));
  return engine.Solve(x);
}

// The QR variants change how the orthonormalizations compute, never what
// they compute: every one must land on the default's converged fit to 4
// significant digits.
TEST(AdaptiveEngineTest, FitParityAcrossVariantPlans) {
  const Tensor x = MakeLowRankTensor({26, 22, 18}, {4, 4, 4}, 0.3, 5);
  double base_error = -1;
  for (const auto& [qr, name] : kQrVariants) {
    Result<EngineRun> run = SolveWithQr(x, qr, {4, 4, 4});
    ASSERT_TRUE(run.ok()) << name << ": " << run.status().ToString();
    const double error = run.value().relative_error;
    if (qr == QrVariant::kAuto) {
      ASSERT_GT(error, 0.0);
      base_error = error;
    }
    EXPECT_NEAR(error, base_error, 5e-4 * base_error) << name;
  }
}

// A pinned plan solved through the Engine, which sizes both the BLAS pool
// and the approximation-phase pool, is bitwise identical at 1 and 4 threads.
TEST(AdaptiveEngineTest, FixedPlansAreBitwiseThreadDeterministic) {
  const Tensor x = MakeLowRankTensor({24, 20, 14}, {4, 4, 4}, 0.2, 9);
  for (const auto& [qr, name] : kQrVariants) {
    Result<EngineRun> one = SolveWithQr(x, qr, {4, 4, 4}, /*threads=*/1);
    Result<EngineRun> four = SolveWithQr(x, qr, {4, 4, 4}, /*threads=*/4);
    ASSERT_TRUE(one.ok() && four.ok()) << name;
    ExpectBitwiseEqualDecomposition(one.value().decomposition,
                                    four.value().decomposition,
                                    std::string(name) + " threads 1 vs 4");
  }
  SetBlasThreads(1);
}

// A pinned QR variant must not disturb the sharded path's bitwise identity
// across rank counts.
TEST(AdaptiveEngineTest, ShardedFixedPlanIsBitwiseIdenticalAcrossRankCounts) {
  const Tensor x = MakeLowRankTensor({20, 16, 12}, {3, 3, 3}, 0.2, 4);
  for (const auto& [qr, name] : kQrVariants) {
    std::vector<TuckerDecomposition> runs;
    for (int ranks : {1, 2}) {
      Result<EngineRun> run =
          SolveWithQr(x, qr, {3, 3, 3}, /*threads=*/0, ranks);
      ASSERT_TRUE(run.ok()) << name << " ranks " << ranks << ": "
                            << run.status().ToString();
      runs.push_back(std::move(run.value().decomposition));
    }
    ExpectBitwiseEqualDecomposition(runs[0], runs[1],
                                    std::string(name) + " ranks 1 vs 2");
  }
}

TEST_F(DTuckerStressTest, ModeProductIntoReusesAndMatchesModeProduct) {
  Rng rng(31);
  Tensor x = Tensor::GaussianRandom({9, 7, 5, 3}, rng);
  Tensor out;
  for (Index mode = 0; mode < x.order(); ++mode) {
    Matrix u = Matrix::GaussianRandom(x.dim(mode), 4, rng);
    Tensor ref = ModeProduct(x, u, mode, Trans::kYes);
    // Reuse the same workspace tensor across modes (shape changes).
    ModeProductInto(x, u, mode, Trans::kYes, &out);
    EXPECT_TRUE(BitwiseEqualTensor(ref, out)) << "mode " << mode;
  }
}

}  // namespace
}  // namespace dtucker
