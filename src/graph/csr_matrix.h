#ifndef PQSDA_GRAPH_CSR_MATRIX_H_
#define PQSDA_GRAPH_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/aligned.h"

namespace pqsda {

/// One (row, col, value) entry used to assemble a CsrMatrix.
struct Triplet {
  uint32_t row = 0;
  uint32_t col = 0;
  double value = 0.0;
};

struct SelfProductScratch;

/// Compressed-sparse-row matrix of doubles. The workhorse of the graph and
/// solver layers: bipartite adjacency, query-affinity products and the
/// regularization system (Eq. 15) are all CSR.
class CsrMatrix {
 public:
  /// Empty rows x cols matrix.
  CsrMatrix(size_t rows = 0, size_t cols = 0);

  /// Assembles from triplets; duplicate (row, col) entries are summed and
  /// zero-valued entries dropped.
  static CsrMatrix FromTriplets(size_t rows, size_t cols,
                                std::vector<Triplet> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// Column indices of row i (ascending).
  std::span<const uint32_t> RowIndices(size_t i) const {
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Values of row i, aligned with RowIndices.
  std::span<const double> RowValues(size_t i) const {
    return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  size_t RowNnz(size_t i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// Value at (i, j); 0 if the entry is absent. O(log nnz(row)).
  double At(size_t i, size_t j) const;

  /// Sum of the values in row i.
  double RowSum(size_t i) const;

  /// y = A x. x.size() must equal cols(); y is resized to rows().
  void MatVec(const std::vector<double>& x, std::vector<double>& y) const;

  /// y = A^T x. x.size() must equal rows(); y is resized to cols().
  void TransposeMatVec(const std::vector<double>& x,
                       std::vector<double>& y) const;

  /// A^T as a new CSR matrix.
  CsrMatrix Transpose() const;
  /// A^T into `out`, reusing its storage.
  void TransposeInto(CsrMatrix& out) const;

  /// Returns a copy with each row L1-normalized (rows summing to 0 stay 0).
  CsrMatrix RowNormalized() const;

  /// Scales column j of the matrix by factor[j] (in place).
  void ScaleColumns(const std::vector<double>& factor);

  /// Scales all values by s (in place).
  void Scale(double s);

  /// Computes A * A^T (rows x rows). This is the query-affinity product
  /// W^X W^{X^T} of the smoothness constraint (Eq. 9). Entries with
  /// |value| <= `drop_tol` are dropped to bound fill-in.
  CsrMatrix MultiplySelfTranspose(double drop_tol = 0.0) const;

  /// MultiplySelfTranspose into `out`, with every intermediate buffer drawn
  /// from `scratch`. Gustavson's row-wise product over the
  /// upper triangle only — a dense rows()-length accumulator plus a touched
  /// list per row — then the triangle is mirrored. Entry (i, j) sums
  /// A(i, k) * A(j, k) over ascending k starting from 0.0; multiplication
  /// commutes, so (j, i) holds the same bits and the product is exactly
  /// symmetric.
  void MultiplySelfTransposeInto(CsrMatrix& out, SelfProductScratch& scratch,
                                 double drop_tol = 0.0) const;

  /// Row-by-row assembly: StartRows empties the matrix (reserving
  /// `nnz_capacity` entries when a bound is known), each row's entries are
  /// appended in ascending column order and closed by FinishRow, and
  /// FinishRows sets the column count.
  void StartRows(size_t nnz_capacity = 0);
  void AppendEntry(uint32_t col, double value) {
    col_idx_.push_back(col);
    values_.push_back(value);
  }
  void FinishRow() {
    row_ptr_.push_back(col_idx_.size());
    ++rows_;
  }
  void FinishRows(size_t cols);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
  /// 64-byte-aligned so the SIMD MatVec/TransposeMatVec kernels stream
  /// whole cache lines.
  AlignedVector<double> values_;
};

/// Reusable buffers of CsrMatrix::MultiplySelfTransposeInto. Between calls
/// `acc` is all zeros and `mark` all clear: each row resets exactly the
/// entries it touched.
struct SelfProductScratch {
  CsrMatrix transpose;
  /// Per column of A: the position in `transpose`'s row of the first entry
  /// whose row index is not below the row being multiplied.
  std::vector<size_t> cursor;
  std::vector<double> acc;
  std::vector<uint8_t> mark;
  std::vector<uint32_t> touched;
  /// Row offsets of the upper triangle (diagonal included) while it sits
  /// packed at the front of the output.
  std::vector<size_t> upper_ptr;
  /// Per row: mirrored entries below the diagonal, then their fill cursor.
  std::vector<size_t> lower;
};

}  // namespace pqsda

#endif  // PQSDA_GRAPH_CSR_MATRIX_H_
