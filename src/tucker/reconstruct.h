// Partial reconstruction through Tucker factors.
//
// A key operational benefit of keeping data in Tucker form: individual
// elements, fibers, and slices can be reconstructed in O(prod J) time
// without materializing the full tensor. Used by the video and stock
// examples, anomaly-scoring workflows, and the serving layer's factor-space
// query API (serve/server.h).
//
// Numerical contract: every entry point here runs the same ascending
// mode-product chain as TuckerDecomposition::Reconstruct(), restricted to
// the requested factor rows. What holds, and what the tests pin:
//   * answers are bitwise repeatable, call after call;
//   * answers are bitwise identical at every SetBlasThreads() value (the
//     GEMM never splits a contraction across threads, DESIGN.md §6);
//   * answers agree with indexing Reconstruct() to ~1e-11 relative (tested
//     at 1e-10 of the reconstruction's largest magnitude).
// They are NOT bitwise equal to indexing Reconstruct(): restricting a
// factor to a few rows shrinks the GEMM's m or n, which routes the product
// to the thin GEMM path instead of the packed micro-kernel, and the two
// paths round the same k-sum differently (DESIGN.md §13).
#ifndef DTUCKER_TUCKER_RECONSTRUCT_H_
#define DTUCKER_TUCKER_RECONSTRUCT_H_

#include <vector>

#include "common/status.h"
#include "tucker/tucker.h"

namespace dtucker {

// Single element x(idx) = sum_j G(j) * prod_n A(n)(idx_n, j_n).
// O(prod J_n) per call.
Result<double> ReconstructElement(const TuckerDecomposition& dec,
                                  const std::vector<Index>& idx);

// Batched elements: values[i] = x(indices[i]). The serving layer's
// QueryElement path; one validation + O(prod J) chain per index.
Result<std::vector<double>> ReconstructElements(
    const TuckerDecomposition& dec,
    const std::vector<std::vector<Index>>& indices);

// Mode-`mode` fiber x(anchor_1, ..., :, ..., anchor_N): every index is
// pinned to `anchor` except the queried mode, which runs over its full
// extent. anchor must have one entry per mode; the entry at `mode` is
// ignored. O(prod J + I_mode * J_mode) per call.
Result<std::vector<double>> ReconstructFiber(const TuckerDecomposition& dec,
                                             Index mode,
                                             const std::vector<Index>& anchor);

// Frontal slice X(:,:,i3,...,iN) for the flattened trailing index `l`
// (mode-3 fastest, matching Tensor::FrontalSlice). Requires order >= 3.
// O(I1*I2*J + prod J) time.
Result<Matrix> ReconstructFrontalSlice(const TuckerDecomposition& dec,
                                       Index l);

// Sub-tensor over last-mode indices [start, start+len) — e.g. a frame
// range of a video — without building the rest.
Result<Tensor> ReconstructLastModeRange(const TuckerDecomposition& dec,
                                        Index start, Index len);

}  // namespace dtucker

#endif  // DTUCKER_TUCKER_RECONSTRUCT_H_
