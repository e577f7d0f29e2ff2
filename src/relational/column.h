// Typed column storage for the columnar data plane.
//
// A Column owns one contiguous typed vector (int64, double or string) chosen
// by its FieldType; cells are accessed either through the typed vectors (the
// batch-kernel fast path) or through Value-based accessors that reproduce the
// row-of-variants semantics (hashing, ordering, byte accounting) exactly, so
// the engines' shuffle partitioning and the determinism contract carry over
// from the row representation bit for bit.

#ifndef MUSKETEER_SRC_RELATIONAL_COLUMN_H_
#define MUSKETEER_SRC_RELATIONAL_COLUMN_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "src/relational/value.h"

namespace musketeer {

class Column {
 public:
  Column() = default;
  explicit Column(FieldType type) : type_(type) {}

  FieldType type() const { return type_; }

  size_t size() const {
    switch (type_) {
      case FieldType::kInt64:
        return ints_.size();
      case FieldType::kDouble:
        return doubles_.size();
      case FieldType::kString:
        return strings_.size();
    }
    return 0;
  }

  void Reserve(size_t n) {
    switch (type_) {
      case FieldType::kInt64:
        ints_.reserve(n);
        return;
      case FieldType::kDouble:
        doubles_.reserve(n);
        return;
      case FieldType::kString:
        strings_.reserve(n);
        return;
    }
  }

  void Resize(size_t n) {
    switch (type_) {
      case FieldType::kInt64:
        ints_.resize(n);
        return;
      case FieldType::kDouble:
        doubles_.resize(n);
        return;
      case FieldType::kString:
        strings_.resize(n);
        return;
    }
  }

  void Clear() {
    ints_.clear();
    doubles_.clear();
    strings_.clear();
  }

  // Typed vector access; the caller must match type() (checked by assert).
  const std::vector<int64_t>& ints() const {
    assert(type_ == FieldType::kInt64);
    return ints_;
  }
  const std::vector<double>& doubles() const {
    assert(type_ == FieldType::kDouble);
    return doubles_;
  }
  const std::vector<std::string>& strings() const {
    assert(type_ == FieldType::kString);
    return strings_;
  }
  std::vector<int64_t>* mutable_ints() {
    assert(type_ == FieldType::kInt64);
    return &ints_;
  }
  std::vector<double>* mutable_doubles() {
    assert(type_ == FieldType::kDouble);
    return &doubles_;
  }
  std::vector<std::string>* mutable_strings() {
    assert(type_ == FieldType::kString);
    return &strings_;
  }

  Value ValueAt(size_t i) const {
    switch (type_) {
      case FieldType::kInt64:
        return ints_[i];
      case FieldType::kDouble:
        return doubles_[i];
      case FieldType::kString:
        return strings_[i];
    }
    return static_cast<int64_t>(0);
  }

  // Appends `v`, coercing across the numeric types (a double cell written
  // into an INT column truncates, like AsInt64). Returns false — and appends
  // nothing — when a string meets a numeric column or vice versa.
  bool Append(const Value& v);

  // Appends src[i]; src must have the same type (no coercion, assert-checked).
  void AppendFrom(const Column& src, size_t i) {
    assert(src.type_ == type_);
    switch (type_) {
      case FieldType::kInt64:
        ints_.push_back(src.ints_[i]);
        return;
      case FieldType::kDouble:
        doubles_.push_back(src.doubles_[i]);
        return;
      case FieldType::kString:
        strings_.push_back(src.strings_[i]);
        return;
    }
  }

  // Appends src rows [begin, end); same type required.
  void AppendRange(const Column& src, size_t begin, size_t end);

  // Splices the whole of `src` (moving strings) onto the end; same type.
  void AppendColumn(Column&& src);
  void AppendColumnCopy(const Column& src);

  // New column containing this column's cells at `idx`, in `idx` order.
  Column Gather(const std::vector<uint32_t>& idx) const;

  // New column containing rows [begin, end).
  Column Slice(size_t begin, size_t end) const;

  // Hash of cell i, identical to HashValue on the equivalent Value (ints
  // hash through their double representation so 3 and 3.0 agree).
  size_t HashAt(size_t i) const {
    switch (type_) {
      case FieldType::kInt64:
        return std::hash<double>{}(static_cast<double>(ints_[i]));
      case FieldType::kDouble:
        return std::hash<double>{}(doubles_[i]);
      case FieldType::kString:
        return std::hash<std::string>{}(strings_[i]);
    }
    return 0;
  }

  // CompareValues on cells (works across numeric column types; numerics
  // order before strings).
  int CompareAt(size_t i, const Column& other, size_t j) const;

  // CompareAt(i, other, j) == 0, with the same-type cases inline.
  bool EqualAt(size_t i, const Column& other, size_t j) const {
    if (type_ == other.type_) {
      switch (type_) {
        case FieldType::kInt64:
          return ints_[i] == other.ints_[j];
        case FieldType::kDouble:
          return doubles_[i] == other.doubles_[j];
        case FieldType::kString:
          return strings_[i] == other.strings_[j];
      }
    }
    return CompareAt(i, other, j) == 0;
  }

  // Exact equality: same type, same length, bit-identical cells (no
  // cross-numeric coercion). Doubles compare by bit pattern, so a NaN cell
  // is identical to the same NaN and -0.0 is not identical to +0.0. The
  // columnar leg of Table::Identical.
  bool IdenticalTo(const Column& other) const {
    const auto same_bits = [](double a, double b) {
      return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    };
    return type_ == other.type_ && ints_ == other.ints_ &&
           std::equal(doubles_.begin(), doubles_.end(),
                      other.doubles_.begin(), other.doubles_.end(),
                      same_bits) &&
           strings_ == other.strings_;
  }

 private:
  FieldType type_ = FieldType::kInt64;
  // Exactly one of these is active, selected by type_. The two idle vectors
  // cost three pointers each; keeping them as plain members avoids a variant
  // dispatch on every batch-kernel access.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_COLUMN_H_
