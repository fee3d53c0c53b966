#include "graph/csr_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd.h"

namespace pqsda {

CsrMatrix::CsrMatrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return std::tie(a.row, a.col) < std::tie(b.row, b.col);
            });
  CsrMatrix m(rows, cols);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  // The loop runs over every row index, not just rows present in the
  // triplet list: a row with no triplets still executes the
  // `row_ptr_[row + 1] = col_idx_.size()` epilogue, so interior and
  // trailing empty rows get a correct (empty) [row_ptr_[r], row_ptr_[r+1])
  // range instead of the zero-initialized garbage a triplet-driven loop
  // would leave behind. Guarded by the EmptyRow regression tests in
  // graph_test.
  for (size_t row = 0; row < rows; ++row) {
    while (i < triplets.size() && triplets[i].row == row) {
      uint32_t col = triplets[i].col;
      assert(col < cols);
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == row &&
             triplets[i].col == col) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_idx_.push_back(col);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[row + 1] = m.col_idx_.size();
  }
  assert(i == triplets.size());
  return m;
}

double CsrMatrix::At(size_t i, size_t j) const {
  auto idx = RowIndices(i);
  auto it = std::lower_bound(idx.begin(), idx.end(), static_cast<uint32_t>(j));
  if (it == idx.end() || *it != j) return 0.0;
  return values_[row_ptr_[i] + static_cast<size_t>(it - idx.begin())];
}

double CsrMatrix::RowSum(size_t i) const {
  double s = 0.0;
  for (double v : RowValues(i)) s += v;
  return s;
}

void CsrMatrix::MatVec(const std::vector<double>& x,
                       std::vector<double>& y) const {
  assert(x.size() == cols_);
  y.assign(rows_, 0.0);
  const auto dot = simd::ActiveSparseDot();
  const double* xp = x.data();
  for (size_t i = 0; i < rows_; ++i) {
    const size_t begin = row_ptr_[i];
    y[i] = dot(values_.data() + begin, col_idx_.data() + begin,
               row_ptr_[i + 1] - begin, xp);
  }
}

void CsrMatrix::TransposeMatVec(const std::vector<double>& x,
                                std::vector<double>& y) const {
  assert(x.size() == rows_);
  y.assign(cols_, 0.0);
  const auto axpy = simd::ActiveAxpyScatter();
  double* yp = y.data();
  for (size_t i = 0; i < rows_; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    const size_t begin = row_ptr_[i];
    axpy(values_.data() + begin, col_idx_.data() + begin,
         row_ptr_[i + 1] - begin, xi, yp);
  }
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  TransposeInto(t);
  return t;
}

void CsrMatrix::TransposeInto(CsrMatrix& t) const {
  assert(&t != this);
  t.rows_ = cols_;
  t.cols_ = rows_;
  // Counting sort by column: count into row_ptr_[c + 1], prefix-sum, fill
  // through row_ptr_[c] as the cursor, then shift the cursors back.
  t.row_ptr_.assign(cols_ + 1, 0);
  for (uint32_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.reserve(nnz());
  t.values_.reserve(nnz());
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      size_t pos = t.row_ptr_[col_idx_[k]]++;
      t.col_idx_[pos] = static_cast<uint32_t>(i);
      t.values_[pos] = values_[k];
    }
  }
  for (size_t c = cols_; c > 0; --c) t.row_ptr_[c] = t.row_ptr_[c - 1];
  t.row_ptr_[0] = 0;
}

CsrMatrix CsrMatrix::RowNormalized() const {
  CsrMatrix out = *this;
  for (size_t i = 0; i < rows_; ++i) {
    double s = RowSum(i);
    if (s <= 0.0) continue;
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      out.values_[k] = values_[k] / s;
    }
  }
  return out;
}

void CsrMatrix::StartRows(size_t nnz_capacity) {
  rows_ = 0;
  cols_ = 0;
  row_ptr_.assign(1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(nnz_capacity);
  values_.reserve(nnz_capacity);
}

void CsrMatrix::FinishRows(size_t cols) {
  assert(row_ptr_.size() == rows_ + 1);
  cols_ = cols;
}

void CsrMatrix::ScaleColumns(const std::vector<double>& factor) {
  assert(factor.size() == cols_);
  for (size_t k = 0; k < values_.size(); ++k) {
    values_[k] *= factor[col_idx_[k]];
  }
}

void CsrMatrix::Scale(double s) {
  for (double& v : values_) v *= s;
}

CsrMatrix CsrMatrix::MultiplySelfTranspose(double drop_tol) const {
  CsrMatrix out;
  SelfProductScratch scratch;
  MultiplySelfTransposeInto(out, scratch, drop_tol);
  return out;
}

void CsrMatrix::MultiplySelfTransposeInto(CsrMatrix& out,
                                          SelfProductScratch& s,
                                          double drop_tol) const {
  assert(&out != this);
  const size_t n = rows_;
  // The transpose's row k lists the rows holding column k, ascending, so
  // the entries of row i's partners j >= i start at a cursor that moves
  // one step each time a row holding k is multiplied.
  TransposeInto(s.transpose);
  const CsrMatrix& at = s.transpose;
  s.cursor.assign(at.row_ptr_.begin(), at.row_ptr_.end() - 1);
  if (s.acc.size() < n) {
    s.acc.resize(n, 0.0);
    s.mark.resize(n, 0);
  }
  s.upper_ptr.assign(1, 0);
  s.lower.assign(n, 0);
  out.col_idx_.clear();
  out.values_.clear();

  // Upper triangle A(i, j), j >= i, packed at the front of `out`: each
  // entry accumulates its products in ascending column order of row i.
  for (size_t i = 0; i < n; ++i) {
    s.touched.clear();
    for (size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const uint32_t col = col_idx_[k];
      const double w = values_[k];
      const size_t end = at.row_ptr_[col + 1];
      for (size_t k2 = s.cursor[col]++; k2 < end; ++k2) {
        const uint32_t j = at.col_idx_[k2];
        if (s.mark[j] == 0) {
          s.mark[j] = 1;
          s.touched.push_back(j);
        }
        s.acc[j] += w * at.values_[k2];
      }
    }
    std::sort(s.touched.begin(), s.touched.end());
    for (uint32_t j : s.touched) {
      const double v = s.acc[j];
      s.acc[j] = 0.0;
      s.mark[j] = 0;
      if (std::abs(v) <= drop_tol) continue;
      out.col_idx_.push_back(j);
      out.values_.push_back(v);
      if (j > i) ++s.lower[j];
    }
    s.upper_ptr.push_back(out.col_idx_.size());
  }

  // Mirror in place. Row i becomes its mirrored entries (columns < i,
  // ascending) followed by its upper-triangle row.
  out.rows_ = n;
  out.cols_ = n;
  out.row_ptr_.resize(n + 1);
  out.row_ptr_[0] = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t below = s.lower[i];
    s.lower[i] = out.row_ptr_[i];  // now the fill cursor of the lower part
    out.row_ptr_[i + 1] =
        out.row_ptr_[i] + below + (s.upper_ptr[i + 1] - s.upper_ptr[i]);
  }
  const size_t nnz_out = out.row_ptr_[n];
  out.col_idx_.reserve(nnz_out);
  out.values_.reserve(nnz_out);
  out.col_idx_.resize(nnz_out);
  out.values_.resize(nnz_out);
  // Each upper row moves back to the end of its final row, last row first:
  // a row's destination never starts before its source, and never reaches
  // the source of an earlier row.
  for (size_t i = n; i-- > 0;) {
    const size_t len = s.upper_ptr[i + 1] - s.upper_ptr[i];
    const size_t dst = out.row_ptr_[i + 1] - len;
    std::copy_backward(out.col_idx_.begin() + s.upper_ptr[i],
                       out.col_idx_.begin() + s.upper_ptr[i + 1],
                       out.col_idx_.begin() + dst + len);
    std::copy_backward(out.values_.begin() + s.upper_ptr[i],
                       out.values_.begin() + s.upper_ptr[i + 1],
                       out.values_.begin() + dst + len);
  }
  // The lower parts (disjoint from every moved upper row) take the mirror
  // of each upper entry, rows ascending, so their columns ascend.
  for (size_t i = 0; i < n; ++i) {
    const size_t len = s.upper_ptr[i + 1] - s.upper_ptr[i];
    for (size_t k = out.row_ptr_[i + 1] - len; k < out.row_ptr_[i + 1]; ++k) {
      const uint32_t j = out.col_idx_[k];
      if (j == i) continue;
      const size_t pos = s.lower[j]++;
      out.col_idx_[pos] = static_cast<uint32_t>(i);
      out.values_[pos] = out.values_[k];
    }
  }
}

}  // namespace pqsda
