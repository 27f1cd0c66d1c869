#include "tucker/tucker.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/metrics.h"
#include "tensor/tensor_ops.h"

namespace dtucker {

namespace {

// Elements of one row block of the streamed error (512 KiB of doubles):
// the block holds max(1, kErrorBlockDoubles / I_N) rows of X's
// (prod_{n<N} I_n) x I_N view. A function of the shape only, so the block
// partition, and with it the result bits, never depends on the thread count.
constexpr Index kErrorBlockDoubles = Index{1} << 16;

}  // namespace

std::vector<Index> TuckerDecomposition::Ranks() const {
  std::vector<Index> ranks;
  ranks.reserve(factors.size());
  for (const auto& f : factors) ranks.push_back(f.cols());
  return ranks;
}

Status TuckerDecomposition::Validate() const {
  if (factors.empty()) {
    return Status::InvalidArgument("decomposition has no factor matrices");
  }
  if (core.order() != order()) {
    return Status::InvalidArgument(
        "core order " + std::to_string(core.order()) +
        " does not match factor count " + std::to_string(factors.size()));
  }
  for (Index n = 0; n < order(); ++n) {
    const Matrix& f = factors[static_cast<std::size_t>(n)];
    if (f.rows() <= 0 || f.cols() <= 0) {
      return Status::InvalidArgument("factor " + std::to_string(n) +
                                     " is empty");
    }
    if (f.cols() != core.dim(n)) {
      return Status::InvalidArgument(
          "factor " + std::to_string(n) + " has " + std::to_string(f.cols()) +
          " columns but core dimension " + std::to_string(core.dim(n)));
    }
  }
  return Status::OK();
}

Tensor TuckerDecomposition::Reconstruct() const {
  Tensor out = core;
  for (Index n = 0; n < order(); ++n) {
    // Factor A is I_n x J_n; with Trans::kNo it multiplies from the left
    // (contracting the core's J_n) and expands the mode back to I_n.
    out = ModeProduct(out, factors[static_cast<std::size_t>(n)], n,
                      Trans::kNo);
  }
  return out;
}

double TuckerDecomposition::RelativeErrorAgainst(const Tensor& x) const {
  DT_CHECK_EQ(x.order(), order()) << "shape mismatch in RelativeErrorAgainst";
  for (Index n = 0; n < order(); ++n) {
    DT_CHECK_EQ(x.dim(n), factors[static_cast<std::size_t>(n)].rows())
        << "shape mismatch in RelativeErrorAgainst at mode " << n;
  }
  // T = core x_1 A_1 ... x_{N-1} A_{N-1} is the column-major
  // (prod_{n<N} I_n) x J_N matrix whose product with A_N^T is X^'s last-mode
  // unfolding transposed, i.e. X^ viewed as (prod_{n<N} I_n) x I_N. Each row
  // block of that view is one GEMM into a scratch of ~kErrorBlockDoubles,
  // diffed against the same rows of X; X^ itself is never built.
  const Index last = order() - 1;
  const Tensor t = ModeProductChain(core, factors, /*skip_mode=*/last);
  const Matrix& a_last = factors[static_cast<std::size_t>(last)];
  const Index cols = a_last.rows();
  const Index rows = x.size() / cols;
  const Index block_rows = std::max<Index>(1, kErrorBlockDoubles / cols);
  const Index num_blocks = (rows + block_rows - 1) / block_rows;
  return StreamedRelativeError(
      num_blocks, block_rows * cols, [&](Index b, double* y) {
        const Index r0 = b * block_rows;
        const Index m = std::min(block_rows, rows - r0);
        GemmRaw(Trans::kNo, Trans::kYes, m, cols, a_last.cols(), 1.0,
                t.data() + r0, rows, a_last.data(), cols, 0.0, y, m);
        return ResidualBlock{x.data() + r0, rows, m, cols};
      });
}

std::size_t TuckerDecomposition::ByteSize() const {
  std::size_t bytes = core.ByteSize();
  for (const auto& f : factors) bytes += f.ByteSize();
  return bytes;
}

double OrthogonalTuckerRelativeError(double x_squared_norm,
                                     double core_squared_norm) {
  if (x_squared_norm <= 0) return 0.0;
  // Clamp: roundoff can push the projected mass slightly above ||X||^2.
  const double residual =
      std::max(0.0, x_squared_norm - core_squared_norm);
  return residual / x_squared_norm;
}

namespace {
std::atomic<int> g_sweep_metrics_window{64};
}  // namespace

void SetSweepMetricsWindow(int window) {
  g_sweep_metrics_window.store(window < 1 ? 1 : window,
                               std::memory_order_relaxed);
}

void RecordSweepMetrics(const TuckerStats& stats) {
  const int window = g_sweep_metrics_window.load(std::memory_order_relaxed);
  char name[64];
  double total_seconds = 0.0;
  double total_subspace = 0.0;
  for (const SweepTelemetry& t : stats.sweep_history) {
    // Rolling window keeps the gauge namespace bounded (see tucker.h):
    // sweep t reuses slot ((t-1) % window) + 1, identity for t <= window.
    const int slot = (t.sweep - 1) % window + 1;
    std::snprintf(name, sizeof(name), "dtucker.sweep%02d.fit", slot);
    MetricGauge(name).Set(t.fit);
    std::snprintf(name, sizeof(name), "dtucker.sweep%02d.delta_fit", slot);
    MetricGauge(name).Set(t.delta_fit);
    std::snprintf(name, sizeof(name), "dtucker.sweep%02d.seconds", slot);
    MetricGauge(name).Set(t.seconds);
    std::snprintf(name, sizeof(name), "dtucker.sweep%02d.subspace_iterations",
                  slot);
    MetricGauge(name).Set(static_cast<double>(t.subspace_iterations));
    total_seconds += t.seconds;
    total_subspace += static_cast<double>(t.subspace_iterations);
  }
  if (!stats.sweep_history.empty()) {
    // Set (not Add): FinishRun may re-publish the same history.
    MetricGauge("dtucker.sweeps.count")
        .Set(static_cast<double>(stats.sweep_history.size()));
    MetricGauge("dtucker.sweeps.total_seconds").Set(total_seconds);
    MetricGauge("dtucker.sweeps.total_subspace_iterations")
        .Set(total_subspace);
  }
}

}  // namespace dtucker
