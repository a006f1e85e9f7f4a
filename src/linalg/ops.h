#ifndef P3GM_LINALG_OPS_H_
#define P3GM_LINALG_OPS_H_

#include <vector>

#include "linalg/matrix.h"

namespace p3gm {
namespace linalg {

/// Dense kernels shared by the NN layers and the statistical models. All
/// shape mismatches are programming errors and abort via P3GM_CHECK; these
/// functions sit on hot paths and deliberately do not return Status.
///
/// The batch-shaped kernels (gemm variants, Syrk, MatVec, RowSquaredNorms,
/// ScaleRows, AddRowVector, MaxAbsDiff) run on the util::ParallelFor
/// thread pool, blocked over rows with each worker writing a disjoint
/// output slice. Results are bit-identical for any thread count,
/// including 1 (see util/thread_pool.h for the determinism contract).
///
/// The four products (Matmul, MatmulTransA, MatmulTransB, Syrk) keep one
/// contract: each output element sums its terms over p in ascending order
/// from +0.0, a multiply then an add per term, with no FMA. They run one
/// register tile over k-major panels of packed columns, on one of two
/// tiers that each process picks once from CPUID (linalg/tier.h): an
/// AVX-512F 8 x 8 tile over 8-wide panels where the CPU has it, else the
/// portable SSE2/NEON 4 x 4 tile over 4-wide panels. Both tiers give the
/// same bits. No single zero term is skipped; for finite input a skip
/// would be bit-neutral anyway, since adding +-0.0 to a sum that started
/// at +0.0 never changes it. With inf or NaN in one operand, a zero in
/// the other gives a NaN term, so such a result may be NaN where a loop
/// that skips zero terms gives a number.

/// C = A * B, with A (m x k) and B (k x n).
Matrix Matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B, with A (k x m) and B (k x n). Avoids materializing A^T.
Matrix MatmulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T, with A (m x k) and B (n x k). Avoids materializing B^T.
Matrix MatmulTransB(const Matrix& a, const Matrix& b);

/// y = A * x. Each y_i sums over j in ascending order from +0.0; rows are
/// split over the pool when the product is large enough to pay for it.
std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x);

/// y = A^T * x.
std::vector<double> MatVecTransA(const Matrix& a,
                                 const std::vector<double>& x);

/// Inner product <a, b>.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean norm of `a`.
double Norm2(const std::vector<double>& a);

/// Squared Euclidean norm of `a`.
double SquaredNorm2(const std::vector<double>& a);

/// y += alpha * x.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y);

/// x *= alpha.
void Scale(double alpha, std::vector<double>* x);

/// Rank-1 matrix a * b^T.
Matrix Outer(const std::vector<double>& a, const std::vector<double>& b);

/// Adds the row vector `v` to every row of `m` in place.
void AddRowVector(const std::vector<double>& v, Matrix* m);

/// Column means of `m` (length cols()).
std::vector<double> ColMeans(const Matrix& m);

/// Per-row squared L2 norms of `m` (length rows()).
std::vector<double> RowSquaredNorms(const Matrix& m);

/// Scales each row i of `m` by s[i] in place.
void ScaleRows(const std::vector<double>& s, Matrix* m);

/// Symmetric rank-k: returns A^T A (cols x cols), exploiting symmetry;
/// for finite input bit-equal to MatmulTransA(A, A) at any thread count.
/// Rows are processed in L2-sized blocks; the register tiles of the
/// upper triangle are dealt evenly over the pool and carry their partial
/// sums from block to block. Per block, a tile whose rows are all zero in
/// one of its two column panels is skipped (so a triangular A costs about
/// a third of a dense one); with inf or NaN in A this skip may give a
/// number where MatmulTransA gives NaN.
Matrix Syrk(const Matrix& a);

/// Max absolute difference between equally shaped matrices.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace linalg
}  // namespace p3gm

#endif  // P3GM_LINALG_OPS_H_
