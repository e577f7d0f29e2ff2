#include "src/relational/column.h"

#include <utility>

namespace musketeer {

bool Column::Append(const Value& v) {
  switch (type_) {
    case FieldType::kInt64:
      if (v.index() == 0) {
        ints_.push_back(std::get<int64_t>(v));
        return true;
      }
      if (v.index() == 1) {
        ints_.push_back(static_cast<int64_t>(std::get<double>(v)));
        return true;
      }
      return false;
    case FieldType::kDouble:
      if (v.index() == 0) {
        doubles_.push_back(static_cast<double>(std::get<int64_t>(v)));
        return true;
      }
      if (v.index() == 1) {
        doubles_.push_back(std::get<double>(v));
        return true;
      }
      return false;
    case FieldType::kString:
      if (v.index() == 2) {
        strings_.push_back(std::get<std::string>(v));
        return true;
      }
      return false;
  }
  return false;
}

void Column::AppendRange(const Column& src, size_t begin, size_t end) {
  assert(src.type_ == type_);
  switch (type_) {
    case FieldType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      return;
    case FieldType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      return;
    case FieldType::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + end);
      return;
  }
}

void Column::AppendColumn(Column&& src) {
  assert(src.type_ == type_);
  switch (type_) {
    case FieldType::kInt64:
      if (ints_.empty()) {
        ints_ = std::move(src.ints_);
      } else {
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
      }
      break;
    case FieldType::kDouble:
      if (doubles_.empty()) {
        doubles_ = std::move(src.doubles_);
      } else {
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
      }
      break;
    case FieldType::kString:
      if (strings_.empty()) {
        strings_ = std::move(src.strings_);
      } else {
        strings_.insert(strings_.end(),
                        std::make_move_iterator(src.strings_.begin()),
                        std::make_move_iterator(src.strings_.end()));
      }
      break;
  }
  src.Clear();
}

void Column::AppendColumnCopy(const Column& src) {
  AppendRange(src, 0, src.size());
}

namespace {

// out[k] = src[idx[k]]: indexed writes into a sized vector, so the loop
// has no per-element capacity check.
template <typename T>
std::vector<T> GatherValues(const std::vector<T>& src,
                            const std::vector<uint32_t>& idx) {
  std::vector<T> out(idx.size());
  for (size_t k = 0; k < idx.size(); ++k) out[k] = src[idx[k]];
  return out;
}

}  // namespace

Column Column::Gather(const std::vector<uint32_t>& idx) const {
  Column out(type_);
  switch (type_) {
    case FieldType::kInt64:
      out.ints_ = GatherValues(ints_, idx);
      break;
    case FieldType::kDouble:
      out.doubles_ = GatherValues(doubles_, idx);
      break;
    case FieldType::kString:
      out.strings_.reserve(idx.size());
      for (uint32_t i : idx) out.strings_.push_back(strings_[i]);
      break;
  }
  return out;
}

Column Column::Slice(size_t begin, size_t end) const {
  Column out(type_);
  out.AppendRange(*this, begin, end);
  return out;
}

int Column::CompareAt(size_t i, const Column& other, size_t j) const {
  bool a_str = type_ == FieldType::kString;
  bool b_str = other.type_ == FieldType::kString;
  if (a_str != b_str) {
    return a_str ? 1 : -1;  // numerics order before strings
  }
  if (a_str) {
    const std::string& sa = strings_[i];
    const std::string& sb = other.strings_[j];
    if (sa < sb) {
      return -1;
    }
    return sa == sb ? 0 : 1;
  }
  if (type_ == FieldType::kInt64 && other.type_ == FieldType::kInt64) {
    int64_t ia = ints_[i];
    int64_t ib = other.ints_[j];
    if (ia < ib) {
      return -1;
    }
    return ia == ib ? 0 : 1;
  }
  double da = type_ == FieldType::kInt64 ? static_cast<double>(ints_[i])
                                         : doubles_[i];
  double db = other.type_ == FieldType::kInt64
                  ? static_cast<double>(other.ints_[j])
                  : other.doubles_[j];
  if (da < db) {
    return -1;
  }
  return da == db ? 0 : 1;
}

}  // namespace musketeer
