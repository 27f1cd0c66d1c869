#include "tucker/reconstruct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "data/generators.h"
#include "linalg/blas.h"
#include "tucker/hosvd.h"

namespace dtucker {
namespace {

class ReconstructTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = MakeLowRankTensor({9, 8, 7, 6}, {3, 3, 3, 3}, 0.1, 1);
    dec_ = StHosvd(x_, {3, 3, 3, 3}).ValueOrDie();
    full_ = dec_.Reconstruct();
  }
  Tensor x_;
  TuckerDecomposition dec_;
  Tensor full_;
};

TEST_F(ReconstructTest, ElementMatchesFullReconstruction) {
  for (Index l = 0; l < 6; l += 2) {
    for (Index k = 0; k < 7; k += 3) {
      for (Index j = 0; j < 8; j += 3) {
        for (Index i = 0; i < 9; i += 4) {
          Result<double> v = ReconstructElement(dec_, {i, j, k, l});
          ASSERT_TRUE(v.ok());
          EXPECT_NEAR(v.value(), full_(i, j, k, l), 1e-10);
        }
      }
    }
  }
}

TEST_F(ReconstructTest, ElementValidatesIndex) {
  EXPECT_FALSE(ReconstructElement(dec_, {0, 0, 0}).ok());       // Order.
  EXPECT_FALSE(ReconstructElement(dec_, {9, 0, 0, 0}).ok());    // Range.
  EXPECT_FALSE(ReconstructElement(dec_, {-1, 0, 0, 0}).ok());
}

TEST_F(ReconstructTest, FrontalSliceMatchesFullReconstruction) {
  for (Index l = 0; l < full_.NumFrontalSlices(); l += 7) {
    Result<Matrix> slice = ReconstructFrontalSlice(dec_, l);
    ASSERT_TRUE(slice.ok());
    EXPECT_TRUE(AlmostEqual(slice.value(), full_.FrontalSlice(l), 1e-10))
        << "slice " << l;
  }
}

TEST_F(ReconstructTest, FrontalSliceValidates) {
  EXPECT_FALSE(ReconstructFrontalSlice(dec_, -1).ok());
  EXPECT_FALSE(ReconstructFrontalSlice(dec_, 42).ok());
}

TEST_F(ReconstructTest, LastModeRangeMatchesFullReconstruction) {
  Result<Tensor> range = ReconstructLastModeRange(dec_, 2, 3);
  ASSERT_TRUE(range.ok());
  EXPECT_TRUE(AlmostEqual(range.value(), full_.LastModeSlice(2, 3), 1e-10));
}

TEST_F(ReconstructTest, LastModeRangeValidates) {
  EXPECT_FALSE(ReconstructLastModeRange(dec_, -1, 2).ok());
  EXPECT_FALSE(ReconstructLastModeRange(dec_, 5, 2).ok());
}

TEST(ReconstructThreeOrderTest, FrontalSliceOnVideoDecomposition) {
  Tensor video = MakeVideoAnalog(20, 16, 12, 2, 0.05, 2);
  TuckerDecomposition dec = StHosvd(video, {5, 5, 5}).ValueOrDie();
  Tensor full = dec.Reconstruct();
  for (Index t = 0; t < 12; t += 5) {
    Result<Matrix> frame = ReconstructFrontalSlice(dec, t);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(AlmostEqual(frame.value(), full.FrontalSlice(t), 1e-10));
  }
}

// --- Numerical contract on E1-shaped models ----------------------------
//
// Rank-10 decompositions shaped like the E1 analogs (a video-like
// 128 x 96 x 205 and the climate-like 77 x 115 x 13 x 77). At these sizes
// the full reconstruction runs its mode products on the packed GEMM
// micro-kernel, while a restricted query's few-row products take the thin
// path, so answers are close to indexing Reconstruct() but not bit-equal.

TuckerDecomposition E1ShapedDecomposition(const std::vector<Index>& dims,
                                          uint64_t seed) {
  Rng rng(seed);
  TuckerDecomposition dec;
  dec.core = Tensor::GaussianRandom(std::vector<Index>(dims.size(), 10), rng);
  for (Index d : dims) dec.factors.push_back(Matrix::GaussianRandom(d, 10, rng));
  return dec;
}

const std::vector<Index> kE1Shapes[] = {{128, 96, 205}, {77, 115, 13, 77}};

// 64 fixed pseudo-random element indices.
std::vector<std::vector<Index>> SampleIndices(const TuckerDecomposition& dec) {
  Rng rng(77);
  std::vector<std::vector<Index>> indices;
  for (int q = 0; q < 64; ++q) {
    std::vector<Index> idx;
    for (const Matrix& f : dec.factors) {
      idx.push_back(static_cast<Index>(rng.UniformInt(f.rows())));
    }
    indices.push_back(idx);
  }
  return indices;
}

// Every query kind on a fixed sample: elements, one fiber per mode, three
// frontal slices and a last-mode range, flattened into one vector.
std::vector<double> QueryAnswers(const TuckerDecomposition& dec) {
  const Index order = dec.order();
  std::vector<double> out;
  const std::vector<std::vector<Index>> indices = SampleIndices(dec);
  const std::vector<double> elems = ReconstructElements(dec, indices).ValueOrDie();
  out.insert(out.end(), elems.begin(), elems.end());
  for (Index mode = 0; mode < order; ++mode) {
    const std::vector<double> fiber =
        ReconstructFiber(dec, mode, indices[static_cast<std::size_t>(mode)])
            .ValueOrDie();
    out.insert(out.end(), fiber.begin(), fiber.end());
  }
  Index num_slices = 1;
  for (Index n = 2; n < order; ++n) num_slices *= dec.factors[n].rows();
  for (Index l : {Index{0}, num_slices / 2, num_slices - 1}) {
    const Matrix slice = ReconstructFrontalSlice(dec, l).ValueOrDie();
    out.insert(out.end(), slice.data(), slice.data() + slice.size());
  }
  const Tensor range = ReconstructLastModeRange(dec, 3, 2).ValueOrDie();
  out.insert(out.end(), range.data(), range.data() + range.size());
  return out;
}

// The same sample read off the full reconstruction, in QueryAnswers' order.
std::vector<double> IndexedAnswers(const TuckerDecomposition& dec,
                                   const Tensor& full) {
  const Index order = dec.order();
  auto at = [&](const std::vector<Index>& idx) {
    Index flat = 0, stride = 1;
    for (Index n = 0; n < order; ++n) {
      flat += idx[static_cast<std::size_t>(n)] * stride;
      stride *= full.dim(n);
    }
    return full.data()[flat];
  };
  std::vector<double> out;
  const std::vector<std::vector<Index>> indices = SampleIndices(dec);
  for (const std::vector<Index>& idx : indices) out.push_back(at(idx));
  for (Index mode = 0; mode < order; ++mode) {
    std::vector<Index> idx = indices[static_cast<std::size_t>(mode)];
    for (Index i = 0; i < full.dim(mode); ++i) {
      idx[static_cast<std::size_t>(mode)] = i;
      out.push_back(at(idx));
    }
  }
  const Index num_slices = full.NumFrontalSlices();
  for (Index l : {Index{0}, num_slices / 2, num_slices - 1}) {
    const Matrix slice = full.FrontalSlice(l);
    out.insert(out.end(), slice.data(), slice.data() + slice.size());
  }
  const Tensor range = full.LastModeSlice(3, 2);
  out.insert(out.end(), range.data(), range.data() + range.size());
  return out;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ReconstructContractTest, AgreesWithFullReconstructionOnE1Shapes) {
  uint64_t seed = 300;
  for (const std::vector<Index>& dims : kE1Shapes) {
    const TuckerDecomposition dec = E1ShapedDecomposition(dims, ++seed);
    const std::vector<double> got = QueryAnswers(dec);
    const std::vector<double> want = IndexedAnswers(dec, dec.Reconstruct());
    ASSERT_EQ(got.size(), want.size());
    double scale = 0.0;
    for (double v : want) scale = std::max(scale, std::fabs(v));
    ASSERT_GT(scale, 0.0);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], 1e-10 * scale)
          << "answer " << i << " of order-" << dims.size() << " model";
    }
    // Bitwise repeatable, call after call.
    EXPECT_TRUE(BitEqual(QueryAnswers(dec), got));
  }
}

TEST(ReconstructContractTest, BitwiseIdenticalAtOneAndFourThreads) {
  uint64_t seed = 400;
  for (const std::vector<Index>& dims : kE1Shapes) {
    const TuckerDecomposition dec = E1ShapedDecomposition(dims, ++seed);
    SetBlasThreads(1);
    const std::vector<double> serial = QueryAnswers(dec);
    SetBlasThreads(4);
    const std::vector<double> threaded = QueryAnswers(dec);
    SetBlasThreads(1);
    EXPECT_TRUE(BitEqual(threaded, serial))
        << "order-" << dims.size() << " model";
  }
}

}  // namespace
}  // namespace dtucker
