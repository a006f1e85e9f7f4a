#include "linalg/matrix.h"

#include <cmath>
#include <sstream>

#include "util/string_utils.h"

namespace p3gm {
namespace linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  if (rows_ == 0) return;
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    P3GM_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

util::Result<Matrix> Matrix::FromFlat(std::size_t rows, std::size_t cols,
                                      std::vector<double> flat) {
  // rows > size / cols first: rows * cols may wrap.
  if ((cols != 0 && rows > flat.size() / cols) ||
      flat.size() != rows * cols) {
    return util::Status::InvalidArgument(
        "FromFlat: buffer size does not match rows*cols");
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(flat);
  return m;
}

util::Result<Matrix> Matrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const std::size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != cols) {
      return util::Status::InvalidArgument("FromRows: ragged rows");
    }
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rows[i][j];
  }
  return m;
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

std::vector<double> Matrix::Row(std::size_t r) const {
  P3GM_CHECK(r < rows_);
  return std::vector<double>(row_data(r), row_data(r) + cols_);
}

std::vector<double> Matrix::Col(std::size_t c) const {
  P3GM_CHECK(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, c);
  return out;
}

void Matrix::SetRow(std::size_t r, const std::vector<double>& values) {
  P3GM_CHECK(r < rows_ && values.size() == cols_);
  for (std::size_t j = 0; j < cols_; ++j) (*this)(r, j) = values[j];
}

Matrix Matrix::SelectRows(const std::vector<std::size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    P3GM_CHECK(indices[i] < rows_);
    const double* src = row_data(indices[i]);
    double* dst = out.row_data(i);
    for (std::size_t j = 0; j < cols_; ++j) dst[j] = src[j];
  }
  return out;
}

Matrix Matrix::FirstCols(std::size_t k) const {
  P3GM_CHECK(k <= cols_);
  Matrix out(rows_, k);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = row_data(i);
    double* dst = out.row_data(i);
    for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  }
  return out;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  P3GM_CHECK(rows_ == other.rows_);
  Matrix out(rows_, cols_ + other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* dst = out.row_data(i);
    const double* a = row_data(i);
    const double* b = other.row_data(i);
    for (std::size_t j = 0; j < cols_; ++j) dst[j] = a[j];
    for (std::size_t j = 0; j < other.cols_; ++j) dst[cols_ + j] = b[j];
  }
  return out;
}

Matrix Matrix::ConcatRows(const Matrix& other) const {
  if (empty()) return other;
  if (other.empty()) return *this;
  P3GM_CHECK(cols_ == other.cols_);
  Matrix out(rows_ + other.rows_, cols_);
  std::copy(data_.begin(), data_.end(), out.data_.begin());
  std::copy(other.data_.begin(), other.data_.end(),
            out.data_.begin() + static_cast<std::ptrdiff_t>(data_.size()));
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  P3GM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  P3GM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::string Matrix::ToString(int digits) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")\n";
  for (std::size_t i = 0; i < rows_; ++i) {
    os << "  [";
    for (std::size_t j = 0; j < cols_; ++j) {
      if (j) os << ", ";
      os << util::FormatDouble((*this)(i, j), digits);
    }
    os << "]\n";
  }
  return os.str();
}

}  // namespace linalg
}  // namespace p3gm
