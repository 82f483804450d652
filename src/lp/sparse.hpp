// sparse.hpp — compressed sparse columns, an indexed work vector and the
// product-form eta file, the storage layer under the revised simplex
// (revised_simplex.cpp).
//
// The basis inverse is kept as a product of eta matrices ("product form of
// the inverse", the layout chuffed's LUFactor also uses): each pivot appends
// one eta; refactorization rebuilds the file from the basis columns with
// partial pivoting, sparsest column first. An eta is the identity except in
// one column, so FTRAN (v ← B⁻¹v) applies the file left-to-right with one
// axpy per eta and BTRAN (v ← B⁻ᵀv) applies transposed etas right-to-left
// with one sparse dot each. This is a Gauss–Jordan product form rather than
// a triangular LU — more fill per eta, but one code path serves both the
// per-pivot update and the rebuild, and the refactorization interval keeps
// the file short.
//
// That one path is pattern-aware. The entering column and each basis column
// being refactorized live in an IndexedVector, whose FTRAN records every row
// it touches and leaves that list in ascending order. The pivot search, the
// ratio test, the basic-value update and append() then cost the column's
// nonzeros instead of m. Visiting the same candidates in the same ascending
// order as a dense scan picks the same pivots and writes the same eta
// entries in the same order, so the arithmetic is bit-for-bit the dense
// one's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace stosched::lp {

/// Column-major sparse matrix (CSC): column j holds entries
/// [start[j], start[j+1]) of (row, value).
struct SparseColumns {
  std::size_t rows = 0;
  std::vector<std::size_t> start;  ///< columns+1 offsets into row/value
  std::vector<std::uint32_t> row;
  std::vector<double> value;
};

/// A dense vector of m entries that lists the rows it has touched (a marker
/// per row plus an index list), so that reading its nonzeros and resetting it
/// cost the pattern, not m. Untouched entries are exactly +0; a touched one
/// may have cancelled back to zero.
class IndexedVector {
 public:
  /// m zero entries, empty pattern.
  explicit IndexedVector(std::size_t m = 0) : value_(m, 0.0), mark_(m, 0) {
    index_.reserve(m);
  }
  [[nodiscard]] double operator[](std::size_t i) const { return value_[i]; }
  /// The touched rows; ascending once EtaFile::ftran has run.
  [[nodiscard]] const std::vector<std::uint32_t>& pattern() const {
    return index_;
  }
  /// v[i] += x.
  void add(std::uint32_t i, double x) {
    touch(i);
    value_[i] += x;
  }
  /// Back to all zeros, in time proportional to the pattern.
  void clear() {
    for (const std::uint32_t i : index_) {
      value_[i] = 0.0;
      mark_[i] = 0;
    }
    index_.clear();
  }

 private:
  friend class EtaFile;
  void touch(std::uint32_t i) {
    if (mark_[i] != 0) return;
    mark_[i] = 1;
    index_.push_back(i);
  }

  std::vector<double> value_;
  std::vector<char> mark_;
  std::vector<std::uint32_t> index_;
};

/// One eta matrix: the identity with column `pivot` replaced. Applying it to
/// a vector scales entry `pivot` by `diag` and adds `off` multiples of the
/// old pivot entry elsewhere.
struct Eta {
  std::uint32_t pivot = 0;
  double diag = 1.0;
  std::vector<std::pair<std::uint32_t, double>> off;
};

/// The eta file: B⁻¹ = E_K ··· E_1 for the current basis. append() is both
/// the per-pivot update (w = current B⁻¹ times the entering column) and one
/// step of refactorization (w = partial product times a basis column); both
/// build w with the pattern-aware ftran().
class EtaFile {
 public:
  void clear() { etas_.clear(); }

  /// Append the eta that maps the column w, as ftran() left it, to e_pivot.
  /// Entries below drop_tol are discarded; a column that is already e_pivot
  /// appends nothing. The caller guarantees |w[pivot]| is pivot-worthy.
  void append(const IndexedVector& w, std::uint32_t pivot, double drop_tol) {
    Eta e;
    e.pivot = pivot;
    const double pv = w[pivot];
    e.diag = 1.0 / pv;
    for (const std::uint32_t k : w.pattern()) {
      if (k == pivot) continue;
      const double v = w[k];
      if (v > drop_tol || v < -drop_tol) e.off.emplace_back(k, -v / pv);
    }
    if (e.off.empty() && e.diag == 1.0) return;  // identity eta
    etas_.push_back(std::move(e));
  }

  /// v ← B⁻¹ v (dense work vector).
  void ftran(std::vector<double>& v) const {
    for (const Eta& e : etas_) {
      const double t = v[e.pivot];
      if (t == 0.0) continue;
      v[e.pivot] = e.diag * t;
      for (const auto& [k, a] : e.off) v[k] += a * t;
    }
  }

  /// v ← B⁻¹ v, recording the rows it fills in; leaves v.pattern()
  /// ascending. Same operations in the same order as the dense overload.
  void ftran(IndexedVector& v) const {
    for (const Eta& e : etas_) {
      const double t = v.value_[e.pivot];
      if (t == 0.0) continue;
      v.value_[e.pivot] = e.diag * t;
      for (const auto& [k, a] : e.off) {
        v.touch(k);
        v.value_[k] += a * t;
      }
    }
    std::sort(v.index_.begin(), v.index_.end());
  }

  /// v ← B⁻ᵀ v (dense work vector).
  void btran(std::vector<double>& v) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = it->diag * v[it->pivot];
      for (const auto& [k, a] : it->off) s += a * v[k];
      v[it->pivot] = s;
    }
  }

 private:
  std::vector<Eta> etas_;
};

}  // namespace stosched::lp
