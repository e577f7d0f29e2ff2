#include "src/relational/table.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace musketeer {

Table Table::FromColumns(Schema schema, std::vector<Column> cols) {
  Table out;
  out.schema_ = std::move(schema);
  out.cols_ = std::move(cols);
  assert(out.cols_.size() == out.schema_.num_fields());
  out.num_rows_ = out.cols_.empty() ? 0 : out.cols_[0].size();
  for (size_t c = 0; c < out.cols_.size(); ++c) {
    assert(out.cols_[c].type() == out.schema_.field(c).type);
    assert(out.cols_[c].size() == out.num_rows_);
  }
  return out;
}

Row Table::MaterializeRow(size_t row) const {
  Row r;
  r.reserve(cols_.size());
  for (const Column& c : cols_) {
    r.push_back(c.ValueAt(row));
  }
  return r;
}

std::vector<Row> Table::MaterializeRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    rows.push_back(MaterializeRow(i));
  }
  return rows;
}

void Table::AddRow(const Row& row) {
  assert(row.size() == cols_.size());
  for (size_t c = 0; c < cols_.size() && c < row.size(); ++c) {
    if (!cols_[c].Append(row[c])) {
      // String/numeric mismatch against the schema: a programming error.
      // Keep columns aligned by loading a default cell.
      assert(false && "cell type does not match schema");
      cols_[c].Resize(cols_[c].size() + 1);
    }
  }
  ++num_rows_;
  InvalidateAvgRowBytes();
}

void Table::AppendTable(Table&& other) {
  if (other.cols_.empty() && other.schema_.num_fields() == 0 &&
      other.num_rows_ == 0) {
    return;  // appending a default-constructed table is a no-op
  }
  if (cols_.empty() && schema_.num_fields() == 0 && num_rows_ == 0) {
    // Adopt the appended table's schema and data; keep this table's scale
    // (callers account for nominal size separately).
    double s = scale_;
    *this = std::move(other);
    scale_ = s;
    return;
  }
  assert(other.cols_.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendColumn(std::move(other.cols_[c]));
  }
  num_rows_ += other.num_rows_;
  other.num_rows_ = 0;
  other.InvalidateAvgRowBytes();
  InvalidateAvgRowBytes();
}

void Table::AppendTableCopy(const Table& other) {
  if (other.cols_.empty() && other.schema_.num_fields() == 0 &&
      other.num_rows_ == 0) {
    return;
  }
  if (cols_.empty() && schema_.num_fields() == 0 && num_rows_ == 0) {
    double s = scale_;
    *this = other;
    scale_ = s;
    return;
  }
  assert(other.cols_.size() == cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].AppendColumnCopy(other.cols_[c]);
  }
  num_rows_ += other.num_rows_;
  InvalidateAvgRowBytes();
}

Table Table::Slice(size_t begin, size_t end) const {
  Table out(schema_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    out.cols_[c] = cols_[c].Slice(begin, end);
  }
  out.num_rows_ = end - begin;
  out.scale_ = scale_;
  return out;
}

Table Table::Gather(const std::vector<uint32_t>& idx) const {
  Table out(schema_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    out.cols_[c] = cols_[c].Gather(idx);
  }
  out.num_rows_ = idx.size();
  out.scale_ = scale_;
  return out;
}

Status Table::Validate() const {
  if (cols_.size() != schema_.num_fields()) {
    return InternalError("table has " + std::to_string(cols_.size()) +
                         " columns, schema has " +
                         std::to_string(schema_.num_fields()));
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].type() != schema_.field(c).type) {
      return InternalError("column " + std::to_string(c) + " (" +
                           schema_.field(c).name + ") has type " +
                           FieldTypeName(cols_[c].type()) + ", schema says " +
                           FieldTypeName(schema_.field(c).type));
    }
    if (cols_[c].size() != num_rows_) {
      return InternalError("column " + std::to_string(c) + " has " +
                           std::to_string(cols_[c].size()) + " cells, table has " +
                           std::to_string(num_rows_) + " rows");
    }
  }
  return OkStatus();
}

double Table::avg_row_bytes() const {
  double cached = avg_row_bytes_cache_.load(std::memory_order_relaxed);
  if (cached >= 0) {
    return cached;
  }
  double result;
  if (num_rows_ == 0) {
    // Fall back to schema-based width so empty relations still cost something
    // reasonable in the simulator.
    double w = 0;
    for (const Field& f : schema_.fields()) {
      w += (f.type == FieldType::kString) ? 16.0 : 8.0;
    }
    result = w > 0 ? w : 8.0;
  } else {
    size_t sample = std::min<size_t>(num_rows_, 1024);
    double total = 0;
    for (const Column& c : cols_) {
      if (c.type() == FieldType::kString) {
        const std::vector<std::string>& s = c.strings();
        for (size_t i = 0; i < sample; ++i) {
          total += static_cast<double>(s[i].size()) + 1.0;
        }
      } else {
        total += 8.0 * static_cast<double>(sample);
      }
    }
    result = total / static_cast<double>(sample);
  }
  avg_row_bytes_cache_.store(result, std::memory_order_relaxed);
  return result;
}

std::string Table::DebugString(size_t limit) const {
  std::ostringstream os;
  os << "[" << schema_.ToString() << "] " << num_rows_ << " rows (scale "
     << scale_ << ")\n";
  for (size_t i = 0; i < num_rows_ && i < limit; ++i) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      if (c > 0) {
        os << " | ";
      }
      os << ValueToString(cols_[c].ValueAt(i));
    }
    os << "\n";
  }
  if (num_rows_ > limit) {
    os << "... (" << num_rows_ - limit << " more)\n";
  }
  return os.str();
}

int Table::CompareRowsAt(const Table& a, size_t i, const Table& b, size_t j) {
  size_t n = std::min(a.num_fields(), b.num_fields());
  for (size_t c = 0; c < n; ++c) {
    int cmp = a.col(c).CompareAt(i, b.col(c), j);
    if (cmp != 0) {
      return cmp;
    }
  }
  if (a.num_fields() == b.num_fields()) {
    return 0;
  }
  return a.num_fields() < b.num_fields() ? -1 : 1;
}

namespace {

// Stable-sort permutation of `t`'s rows in canonical (RowLess) order.
std::vector<uint32_t> SortedPermutation(const Table& t) {
  std::vector<uint32_t> perm(t.num_rows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
    return Table::CompareRowsAt(t, x, t, y) < 0;
  });
  return perm;
}

// Cell equality with a floating-point tolerance: distributed engines sum
// doubles in partition order, which differs from the reference interpreter's
// input order by last-ULP rounding. Integers and strings compare exactly;
// a string never equals a numeric (the old row path coerced strings to 0.0
// here, silently matching 0-valued doubles).
bool CellsCloseEnough(const Column& a, size_t i, const Column& b, size_t j) {
  bool a_str = a.type() == FieldType::kString;
  bool b_str = b.type() == FieldType::kString;
  if (a_str || b_str) {
    return a_str && b_str && a.strings()[i] == b.strings()[j];
  }
  if (a.type() == FieldType::kDouble || b.type() == FieldType::kDouble) {
    double x = a.type() == FieldType::kInt64
                   ? static_cast<double>(a.ints()[i])
                   : a.doubles()[i];
    double y = b.type() == FieldType::kInt64
                   ? static_cast<double>(b.ints()[j])
                   : b.doubles()[j];
    double tolerance = 1e-9 * std::max({std::abs(x), std::abs(y), 1.0});
    return std::abs(x - y) <= tolerance;
  }
  return a.ints()[i] == b.ints()[j];
}

}  // namespace

bool Table::SameContent(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows()) {
    return false;
  }
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return false;
  }
  std::vector<uint32_t> pa = SortedPermutation(a);
  std::vector<uint32_t> pb = SortedPermutation(b);
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t c = 0; c < a.num_fields(); ++c) {
      if (!CellsCloseEnough(a.col(c), pa[i], b.col(c), pb[i])) {
        return false;
      }
    }
  }
  return true;
}

bool Table::Identical(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() ||
      a.schema().num_fields() != b.schema().num_fields()) {
    return false;
  }
  for (size_t c = 0; c < a.schema().num_fields(); ++c) {
    if (a.schema().field(c).type != b.schema().field(c).type) {
      return false;
    }
  }
  for (size_t c = 0; c < a.num_fields(); ++c) {
    // Same length and bit-identical cells. No cross-numeric coercion and no
    // floating-point tolerance.
    if (!a.col(c).IdenticalTo(b.col(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace musketeer
