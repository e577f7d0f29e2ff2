#include "src/relational/ops.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>
#include <utility>

#include "src/base/parallel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/flat_hash.h"

// Parallelization strategy (see DESIGN.md "Parallel data plane"): every
// kernel splits its input into fixed kMorselRows chunks, computes
// chunk-private partial results, and combines them in chunk order (or a
// fixed pairwise tree). Chunk layout and merge order never depend on the
// thread count, so output is bit-identical at any parallelism — including
// floating-point aggregation, whose summation tree is fixed by the chunking.
//
// Columnar strategy (see DESIGN.md "Columnar data plane"): kernels operate on
// the typed column vectors and exchange *row indices* between phases —
// select/join/sort/distinct compute an index list and Gather it into output
// columns, so variant dispatch and per-row vectors are off every hot path.
//
// Hash strategy (see DESIGN.md "Flat hash structures"): group-by, join and
// the set operators resolve keys through one FlatMap64 index over a
// canonical 64-bit key or a kernel row hash. Those tables are internal: no
// output depends on which partition or slot a key lands in. The hashes the
// engine shuffles use (Column::HashAt, HashRow) are not involved.

namespace musketeer {

namespace {

// Concatenates per-chunk index vectors in chunk order.
std::vector<uint32_t> ConcatIndices(
    const std::vector<std::vector<uint32_t>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

// Assembles per-chunk column blocks into one table (chunk order), with the
// given schema and scale.
Table ConcatChunkColumns(const Schema& schema,
                         std::vector<std::vector<Column>>&& parts,
                         double scale) {
  std::vector<Column> cols;
  cols.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    cols.emplace_back(f.type);
  }
  for (auto& block : parts) {
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].AppendColumn(std::move(block[c]));
    }
  }
  Table out = Table::FromColumns(schema, std::move(cols));
  out.set_scale(scale);
  return out;
}

// Full-row equality across two arity-compatible tables (cross-numeric, like
// ValuesEqual).
bool RowEqualsAcross(const Table& a, size_t i, const Table& b, size_t j) {
  for (size_t c = 0; c < a.num_fields(); ++c) {
    if (!a.col(c).EqualAt(i, b.col(c), j)) {
      return false;
    }
  }
  return true;
}

// Stable parallel merge sort over a row permutation: per-morsel stable_sort,
// then rounds of stable std::merge over adjacent runs (ties take the left
// run first). The result is the stable-sort permutation — unique for a given
// comparator — identical to std::stable_sort of the whole range and to the
// row plane's in-place row sort.
template <typename Less>
std::vector<uint32_t> ParallelStableSortPerm(size_t n, const Less& less) {
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const size_t chunks = NumChunks(n, kMorselRows);
  if (chunks <= 1) {
    std::stable_sort(perm.begin(), perm.end(), less);
    return perm;
  }
  ParallelChunks(n, kMorselRows, [&](size_t, size_t begin, size_t end) {
    std::stable_sort(perm.begin() + begin, perm.begin() + end, less);
  });

  std::vector<size_t> bounds;
  bounds.reserve(chunks + 1);
  for (size_t c = 0; c < chunks; ++c) bounds.push_back(c * kMorselRows);
  bounds.push_back(n);

  std::vector<uint32_t> tmp(n);
  std::vector<uint32_t>* src = &perm;
  std::vector<uint32_t>* dst = &tmp;
  while (bounds.size() > 2) {
    const size_t runs = bounds.size() - 1;
    const size_t pairs = runs / 2;
    ParallelChunks(pairs, 1, [&](size_t p, size_t, size_t) {
      const size_t lo = bounds[2 * p];
      const size_t mid = bounds[2 * p + 1];
      const size_t hi = bounds[2 * p + 2];
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, less);
    });
    if (runs % 2 == 1) {  // odd run out: carry over unmerged
      std::copy(src->begin() + bounds[runs - 1], src->begin() + bounds[runs],
                dst->begin() + bounds[runs - 1]);
    }
    std::vector<size_t> next;
    next.reserve(pairs + 2);
    for (size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (bounds.size() % 2 == 0) next.push_back(n);
    bounds = std::move(next);
    std::swap(src, dst);
  }
  if (src != &perm) perm = std::move(tmp);
  return perm;
}

// Compacts a 0/1 byte mask into absolute row indices (base + k for set
// bytes). The fill loop is branch-free — the write cursor advances by the
// mask byte — so it auto-vectorizes; the over-allocation is trimmed after.
void CompactMask(const uint8_t* mask, size_t n, size_t base,
                 std::vector<uint32_t>* out) {
  out->resize(n);
  uint32_t* o = out->data();
  size_t w = 0;
  for (size_t k = 0; k < n; ++k) {
    o[w] = static_cast<uint32_t>(base + k);
    w += mask[k];
  }
  out->resize(w);
}

}  // namespace

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
      return "SUM";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "UNKNOWN";
}

Table SelectRowsMask(const Table& in, const MaskEval& filter) {
  auto parts = ParallelMapChunks<std::vector<uint32_t>>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<uint8_t> mask(end - begin);
        filter(in, begin, end, mask.data());
        std::vector<uint32_t> kept;
        CompactMask(mask.data(), end - begin, begin, &kept);
        return kept;
      });
  return in.Gather(ConcatIndices(parts));
}

StatusOr<Table> ProjectColumns(const Table& in, const std::vector<int>& columns) {
  Schema out_schema;
  for (int c : columns) {
    if (c < 0 || c >= static_cast<int>(in.schema().num_fields())) {
      return InvalidArgumentError("PROJECT column index " + std::to_string(c) +
                                  " out of range for schema " +
                                  in.schema().ToString());
    }
    out_schema.AddField(in.schema().field(c));
  }
  // Whole-column copies; no per-row work at all.
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (int c : columns) {
    cols.push_back(in.col(c));
  }
  Table out = Table::FromColumns(std::move(out_schema), std::move(cols));
  out.set_scale(in.scale());
  return out;
}

Table MapRowsBatch(const Table& in, const Schema& out_schema,
                   const std::vector<BatchEval>& exprs) {
  auto parts = ParallelMapChunks<std::vector<Column>>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<Column> block;
        block.reserve(exprs.size());
        for (const BatchEval& e : exprs) {
          block.push_back(e(in, begin, end));
        }
        return block;
      });
  return ConcatChunkColumns(out_schema, std::move(parts), in.scale());
}

namespace {

double NumericAt(const Column& c, size_t i) {
  return c.type() == FieldType::kInt64 ? static_cast<double>(c.ints()[i])
                                       : c.doubles()[i];
}

// A row's key for a FlatMap64 (see flat_hash.h): exact or hashed 64 bits,
// and a validity bit that is false only for NaN exact keys, which equal
// nothing.
struct RowKey {
  uint64_t key;
  bool valid;
};

// Calls fn(index) with a FlatMap64 that a morsel or partition task Clears
// and fills with at most `max_ids` ids at a time. An index of up to 1 MB of
// slots is the thread's own, reused across tasks so small tables hit warm
// memory instead of faulting in fresh pages; a larger one (a skewed
// partition) is the task's and is freed when it returns, so an idle thread
// holds no more than that. A task holds it only while it runs no other
// kernel.
template <typename Fn>
void WithTaskIndex(size_t max_ids, const Fn& fn) {
  constexpr size_t kKeptSlots = size_t{1} << 16;  // 16 bytes each
  thread_local FlatMap64 kept;
  if (FlatMap64::CapacityFor(max_ids) <= kKeptSlots) {
    fn(kept);
  } else {
    FlatMap64 own;
    fn(own);
  }
}

// Rows per partition the hash-partitioned kernels aim at: a partition's
// FlatMap64 (16 bytes a slot, at most 50% load) then stays in L2. Output
// never depends on the partitioning.
constexpr size_t kJoinPartitionRows = kMorselRows;
constexpr int kMaxJoinPartitionBits = 12;

// The rows of a table with a valid key, hash-partitioned: grouped by
// partition (the top bits of the mixed key), ascending within a partition,
// with their keys alongside.
struct PartitionedRows {
  std::vector<uint32_t> rows;
  std::vector<uint64_t> keys;   // keys[k] is the key of rows[k]
  std::vector<uint32_t> begin;  // partition p is [begin[p], begin[p + 1])
};

// Partition bits for `rows` indexed rows: about kJoinPartitionRows each.
int JoinPartitionBits(size_t rows) {
  int bits = 0;
  while (bits < kMaxJoinPartitionBits && (kJoinPartitionRows << bits) < rows) {
    ++bits;
  }
  return bits;
}

size_t PartitionOf(uint64_t key, int bits) {
  return bits == 0 ? 0 : MixHash64(key) >> (64 - bits);
}

// Partitions rows 0..n-1 by their RowKey key(r), leaving out rows whose key
// is invalid: per-morsel partition histograms, then every morsel scatters
// its rows into its own range of each partition.
template <typename KeyFn>
PartitionedRows PartitionRows(size_t n, int bits, const KeyFn& key) {
  const size_t parts = size_t{1} << bits;
  constexpr uint16_t kNoPartition = 0xffff;  // a NaN key: matches nothing
  std::vector<uint64_t> key_of(n);
  std::vector<uint16_t> part_of(n);
  auto hist = ParallelMapChunks<std::vector<uint32_t>>(
      n, kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<uint32_t> h(parts, 0);
        for (size_t r = begin; r < end; ++r) {
          const RowKey k = key(r);
          key_of[r] = k.key;
          part_of[r] = k.valid ? static_cast<uint16_t>(PartitionOf(k.key, bits))
                               : kNoPartition;
          if (k.valid) ++h[part_of[r]];
        }
        return h;
      });
  PartitionedRows out;
  out.begin.resize(parts + 1);
  std::vector<std::vector<uint32_t>> cursor(hist.size(),
                                            std::vector<uint32_t>(parts));
  uint32_t pos = 0;
  for (size_t p = 0; p < parts; ++p) {
    out.begin[p] = pos;
    for (size_t m = 0; m < hist.size(); ++m) {
      cursor[m][p] = pos;
      pos += hist[m][p];
    }
  }
  out.begin[parts] = pos;
  out.rows.resize(pos);
  out.keys.resize(pos);
  ParallelChunks(n, kMorselRows, [&](size_t m, size_t begin, size_t end) {
    std::vector<uint32_t>& at = cursor[m];
    for (size_t r = begin; r < end; ++r) {
      if (part_of[r] == kNoPartition) continue;
      const uint32_t k = at[part_of[r]]++;
      out.rows[k] = static_cast<uint32_t>(r);
      out.keys[k] = key_of[r];
    }
  });
  return out;
}

// Gives ids to n rows in order: row_of(k) is the k-th row and key_of(k)
// its 64-bit key. Each gets the id of the earliest row already in `index`
// with an equal key, or a new id whose first row is appended to `first_row`
// (so first_row is indexed by id). same(a, b) is key equality of rows a and b.
template <typename RowOf, typename KeyOf, typename Same>
void AssignIds(size_t n, const RowOf& row_of, const KeyOf& key_of,
               const Same& same, FlatMap64* index,
               std::vector<uint32_t>* first_row, uint32_t* ids) {
  for (size_t k = 0; k < n; ++k) {
    const uint32_t row = row_of(k);
    bool added = false;
    ids[k] = index->FindOrAdd(
        key_of(k), [&](uint32_t id) { return same(row, (*first_row)[id]); },
        &added);
    if (added) first_row->push_back(row);
  }
}

// The match pairs of an equi-join in emission order: left-row order, each
// left row's matches in ascending right index. `lkey`/`rkey` give a row's
// RowKey on each side; `same_right(r, s)` is key equality of right rows r
// and s, `same(i, r)` of left row i and right row r (constant true for
// exact keys).
//
// The build groups the right rows by key in one flat CSR array (a stable
// counting sort, so ascending within a key) and the probe records each
// left row's span of it; count-then-fill then writes the pairs straight
// into the output arrays in left-row order. A build side of more than one
// partition's rows is hash-partitioned, the probe side alike, and each
// partition is built and probed on its own with one cache-sized FlatMap64
// the thread reuses; a smaller build side is one index that every left
// morsel probes in row order.
template <typename LKey, typename RKey, typename SameRight, typename Same>
void JoinPairs(size_t ln, size_t rn, const LKey& lkey, const RKey& rkey,
               const SameRight& same_right, const Same& same,
               std::vector<uint32_t>* lidx, std::vector<uint32_t>* ridx) {
  const int bits = JoinPartitionBits(rn);
  const PartitionedRows right = PartitionRows(rn, bits, rkey);
  std::vector<uint32_t> grouped(right.rows.size());  // right rows, by key
  std::vector<uint32_t> span_begin(ln, 0);
  std::vector<uint32_t> span_end(ln, 0);

  // Indexes partition p's right rows by key and groups them into spans of
  // `grouped`; returns the spans (group g is [offsets[g], offsets[g + 1])).
  const auto build = [&](size_t p, FlatMap64* index) {
    const uint32_t lo = right.begin[p];
    const uint32_t hi = right.begin[p + 1];
    index->Clear(hi - lo);
    std::vector<uint32_t> group_of(hi - lo);
    std::vector<uint32_t> first;  // group → its first right row
    AssignIds(
        hi - lo, [&](size_t k) { return right.rows[lo + k]; },
        [&](size_t k) { return right.keys[lo + k]; }, same_right, index,
        &first, group_of.data());
    // A stable counting sort into group spans: ascending within a key.
    std::vector<uint32_t> offsets(first.size() + 1, 0);
    for (uint32_t g : group_of) ++offsets[g + 1];
    offsets[0] = lo;
    for (size_t g = 1; g < offsets.size(); ++g) offsets[g] += offsets[g - 1];
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t k = lo; k < hi; ++k) {
      grouped[fill[group_of[k - lo]]++] = right.rows[k];
    }
    return offsets;
  };
  // Records left row i's span of matching right rows.
  const auto probe = [&](const FlatMap64& index,
                         const std::vector<uint32_t>& offsets, uint32_t i,
                         uint64_t key) {
    const uint32_t g = index.Find(
        key, [&](uint32_t id) { return same(i, grouped[offsets[id]]); });
    if (g == FlatMap64::kNone) return;
    span_begin[i] = offsets[g];
    span_end[i] = offsets[g + 1];
  };

  if (bits == 0) {
    // One partition: every left morsel probes the one index in row order.
    FlatMap64 index;
    const std::vector<uint32_t> offsets = build(0, &index);
    ParallelChunks(ln, kMorselRows, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const RowKey k = lkey(i);
        if (k.valid) probe(index, offsets, static_cast<uint32_t>(i), k.key);
      }
    });
  } else {
    const PartitionedRows left = PartitionRows(ln, bits, lkey);
    ParallelChunks(size_t{1} << bits, 1, [&](size_t p, size_t, size_t) {
      WithTaskIndex(right.begin[p + 1] - right.begin[p], [&](FlatMap64& index) {
        const std::vector<uint32_t> offsets = build(p, &index);
        for (uint32_t k = left.begin[p]; k < left.begin[p + 1]; ++k) {
          probe(index, offsets, left.rows[k], left.keys[k]);
        }
      });
    });
  }

  auto counts = ParallelMapChunks<size_t>(
      ln, kMorselRows, [&](size_t, size_t begin, size_t end) {
        size_t matches = 0;
        for (size_t i = begin; i < end; ++i) {
          matches += span_end[i] - span_begin[i];
        }
        return matches;
      });
  std::vector<size_t> out_begin(counts.size() + 1, 0);
  for (size_t m = 0; m < counts.size(); ++m) {
    out_begin[m + 1] = out_begin[m] + counts[m];
  }
  lidx->resize(out_begin.back());
  ridx->resize(out_begin.back());
  ParallelChunks(ln, kMorselRows, [&](size_t m, size_t begin, size_t end) {
    size_t w = out_begin[m];
    for (size_t i = begin; i < end; ++i) {
      for (uint32_t s = span_begin[i]; s < span_end[i]; ++s, ++w) {
        (*lidx)[w] = static_cast<uint32_t>(i);
        (*ridx)[w] = grouped[s];
      }
    }
  });
}

// Join keys. Two INT64 columns key exactly on their bits (int-int equality
// is exact), any other numeric pair on the canonical image of the double
// value — exactly how CompareAt compares an int64 to a double.
auto Int64Key(const Column& c) {
  const int64_t* v = c.ints().data();
  return [v](size_t i) { return RowKey{static_cast<uint64_t>(v[i]), true}; };
}

auto DoubleKey(const Column& c) {
  return [&c](size_t i) {
    const double d = NumericAt(c, i);
    return RowKey{CanonicalDoubleKey(d), !KeyIsNaN(d)};
  };
}

auto StringKey(const Column& c) {
  const std::string* v = c.strings().data();
  return [v](size_t i) {
    return RowKey{std::hash<std::string_view>{}(v[i]), true};
  };
}

}  // namespace

StatusOr<Table> HashJoin(const Table& left, const Table& right, int lkey, int rkey) {
  // Kernel instrumentation is per-call (one span + two counter adds per
  // invocation, never per row), keeping overhead inside the bench budget.
  Span span("kernel.join", "kernel");
  static Counter& calls =
      MetricsRegistry::Global().counter("musketeer.relational.join.calls");
  static Counter& rows =
      MetricsRegistry::Global().counter("musketeer.relational.join.input_rows");
  calls.Increment();
  rows.Increment(left.num_rows() + right.num_rows());
  if (span.active()) {
    span.SetAttr("left_rows", std::to_string(left.num_rows()));
    span.SetAttr("right_rows", std::to_string(right.num_rows()));
  }
  if (lkey < 0 || lkey >= static_cast<int>(left.schema().num_fields())) {
    return InvalidArgumentError("JOIN left key out of range");
  }
  if (rkey < 0 || rkey >= static_cast<int>(right.schema().num_fields())) {
    return InvalidArgumentError("JOIN right key out of range");
  }

  Schema out_schema;
  out_schema.AddField(left.schema().field(lkey));
  for (int c = 0; c < static_cast<int>(left.schema().num_fields()); ++c) {
    if (c != lkey) {
      out_schema.AddField(left.schema().field(c));
    }
  }
  for (int c = 0; c < static_cast<int>(right.schema().num_fields()); ++c) {
    if (c != rkey) {
      out_schema.AddField(right.schema().field(c));
    }
  }

  const Column& lc = left.col(lkey);
  const Column& rc = right.col(rkey);
  const bool lstr = lc.type() == FieldType::kString;
  const bool rstr = rc.type() == FieldType::kString;

  // Typed key dispatch. A string never equals a numeric, so mixed string /
  // numeric keys join nothing.
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;
  const auto exact = [](size_t, size_t) { return true; };
  if (lstr && rstr) {
    const std::string* lv = lc.strings().data();
    const std::string* rv = rc.strings().data();
    JoinPairs(
        left.num_rows(), right.num_rows(), StringKey(lc), StringKey(rc),
        [rv](size_t r, size_t s) { return rv[r] == rv[s]; },
        [lv, rv](size_t i, size_t r) { return lv[i] == rv[r]; }, &lidx, &ridx);
  } else if (lc.type() == FieldType::kInt64 &&
             rc.type() == FieldType::kInt64) {
    JoinPairs(left.num_rows(), right.num_rows(), Int64Key(lc), Int64Key(rc),
              exact, exact, &lidx, &ridx);
  } else if (!lstr && !rstr) {
    JoinPairs(left.num_rows(), right.num_rows(), DoubleKey(lc), DoubleKey(rc),
              exact, exact, &lidx, &ridx);
  }

  // Gather output columns (key, left-rest, right-rest) in parallel — each
  // output column is an independent typed gather.
  struct Source {
    const Column* col;
    const std::vector<uint32_t>* idx;
  };
  std::vector<Source> sources;
  sources.reserve(out_schema.num_fields());
  sources.push_back({&lc, &lidx});
  for (int c = 0; c < static_cast<int>(left.schema().num_fields()); ++c) {
    if (c != lkey) sources.push_back({&left.col(c), &lidx});
  }
  for (int c = 0; c < static_cast<int>(right.schema().num_fields()); ++c) {
    if (c != rkey) sources.push_back({&right.col(c), &ridx});
  }
  std::vector<Column> cols(sources.size());
  ParallelChunks(sources.size(), 1, [&](size_t c, size_t, size_t) {
    cols[c] = sources[c].col->Gather(*sources[c].idx);
  });

  Table out = Table::FromColumns(std::move(out_schema), std::move(cols));
  out.set_scale(std::max(left.scale(), right.scale()));
  return out;
}

Table CrossJoin(const Table& left, const Table& right) {
  Schema out_schema;
  for (const Field& f : left.schema().fields()) {
    out_schema.AddField(f);
  }
  for (const Field& f : right.schema().fields()) {
    out_schema.AddField(f);
  }
  const size_t ln = left.num_rows();
  const size_t rn = right.num_rows();
  std::vector<uint32_t> lidx(ln * rn);
  std::vector<uint32_t> ridx(ln * rn);
  ParallelChunks(ln, kMorselRows, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < rn; ++j) {
        lidx[i * rn + j] = static_cast<uint32_t>(i);
        ridx[i * rn + j] = static_cast<uint32_t>(j);
      }
    }
  });
  std::vector<Column> cols(out_schema.num_fields());
  const size_t lcols = left.num_fields();
  ParallelChunks(cols.size(), 1, [&](size_t c, size_t, size_t) {
    cols[c] = c < lcols ? left.col(c).Gather(lidx)
                        : right.col(c - lcols).Gather(ridx);
  });
  Table out = Table::FromColumns(std::move(out_schema), std::move(cols));
  out.set_scale(std::max(left.scale(), right.scale()));
  return out;
}

StatusOr<Table> UnionAll(const Table& a, const Table& b) {
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return InvalidArgumentError("UNION arity mismatch: " + a.schema().ToString() +
                                " vs " + b.schema().ToString());
  }
  std::vector<Column> cols;
  cols.reserve(a.num_fields());
  for (size_t c = 0; c < a.num_fields(); ++c) {
    Column col = a.col(c);
    if (b.col(c).type() == col.type()) {
      col.AppendColumnCopy(b.col(c));
    } else if (col.type() != FieldType::kString &&
               b.col(c).type() != FieldType::kString) {
      // Mixed numeric union: coerce b's cells to a's column type.
      for (size_t i = 0; i < b.num_rows(); ++i) {
        col.Append(b.col(c).ValueAt(i));
      }
    } else {
      return InvalidArgumentError("UNION type mismatch on column " +
                                  std::to_string(c) + ": " +
                                  a.schema().ToString() + " vs " +
                                  b.schema().ToString());
    }
    cols.push_back(std::move(col));
  }
  Table out = Table::FromColumns(a.schema(), std::move(cols));
  double total = static_cast<double>(a.num_rows() + b.num_rows());
  if (total > 0) {
    out.set_scale((a.nominal_rows() + b.nominal_rows()) / total);
  } else {
    out.set_scale(std::max(a.scale(), b.scale()));
  }
  return out;
}

namespace {

// Kernel row hash over `cols` of `t`, rows [begin, end) into out[0..): a
// MixHash64 chain over each cell's 64-bit image. Numerics hash through the
// canonical image of their double value, so cells that compare equal across
// INT64 and DOUBLE columns hash alike. Unequal rows may collide; FlatMap64
// callers resolve that with row equality.
void RowKeyHashes(const Table& t, const std::vector<int>& cols, size_t begin,
                  size_t end, uint64_t* out) {
  std::fill(out, out + (end - begin), 0x9e3779b97f4a7c15ULL);
  for (int c : cols) {
    const Column& col = t.col(c);
    switch (col.type()) {
      case FieldType::kInt64: {
        const int64_t* v = col.ints().data();
        for (size_t i = begin; i < end; ++i) {
          uint64_t& h = out[i - begin];
          h = MixHash64(h ^ CanonicalDoubleKey(static_cast<double>(v[i])));
        }
        break;
      }
      case FieldType::kDouble: {
        const double* v = col.doubles().data();
        for (size_t i = begin; i < end; ++i) {
          uint64_t& h = out[i - begin];
          h = MixHash64(h ^ CanonicalDoubleKey(v[i]));
        }
        break;
      }
      case FieldType::kString: {
        const std::string* v = col.strings().data();
        std::hash<std::string_view> str_hash;
        for (size_t i = begin; i < end; ++i) {
          uint64_t& h = out[i - begin];
          h = MixHash64(h ^ str_hash(v[i]));
        }
        break;
      }
    }
  }
}

std::vector<int> AllColumns(const Table& t) {
  std::vector<int> cols(t.num_fields());
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// The rows of `t` hash-partitioned on their full-row kernel hash, `bits`
// partition bits: equal rows share a partition.
PartitionedRows PartitionFullRows(const Table& t, int bits) {
  const std::vector<int> cols = AllColumns(t);
  std::vector<uint64_t> hashes(t.num_rows());
  ParallelChunks(t.num_rows(), kMorselRows,
                 [&](size_t, size_t begin, size_t end) {
                   RowKeyHashes(t, cols, begin, end, hashes.data() + begin);
                 });
  return PartitionRows(t.num_rows(), bits,
                       [&](size_t i) { return RowKey{hashes[i], true}; });
}

// Indexes the rows k of partition p of `part` (rows of `t`, ascending) for
// which take(k) holds, keeping each value's first occurrence: `index` ids
// number the distinct values and first[id] is the value's first row.
template <typename Take>
void IndexFirstOccurrences(const Table& t, const PartitionedRows& part,
                           size_t p, const Take& take, FlatMap64* index,
                           std::vector<uint32_t>* first) {
  const uint32_t lo = part.begin[p];
  const uint32_t hi = part.begin[p + 1];
  index->Clear(hi - lo);
  first->clear();
  for (uint32_t k = lo; k < hi; ++k) {
    if (!take(k)) continue;
    const uint32_t i = part.rows[k];
    bool added = false;
    index->FindOrAdd(
        part.keys[k],
        [&](uint32_t id) { return RowEqualsAcross(t, i, t, (*first)[id]); },
        &added);
    if (added) first->push_back(i);
  }
}

// The rows of `t` with keep[i] set, in row order.
Table GatherKept(const Table& t, const std::vector<uint8_t>& keep) {
  auto parts = ParallelMapChunks<std::vector<uint32_t>>(
      t.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<uint32_t> kept;
        CompactMask(keep.data() + begin, end - begin, begin, &kept);
        return kept;
      });
  return t.Gather(ConcatIndices(parts));
}

// INTERSECT / DIFFERENCE share their shape. Both sides are partitioned on
// the full-row hash, so equal rows meet in one partition; per partition, a
// cache-sized index of `b`'s rows answers membership for `a`'s rows, and a
// second pass keeps the first occurrence of each wanted `a` row. Emission
// is in `a` order.
Table SetOpFilter(const Table& a, const Table& b, bool want_member) {
  const int bits = JoinPartitionBits(std::max(a.num_rows(), b.num_rows()));
  const PartitionedRows pa = PartitionFullRows(a, bits);
  const PartitionedRows pb = PartitionFullRows(b, bits);
  std::vector<uint8_t> keep(a.num_rows(), 0);
  ParallelChunks(size_t{1} << bits, 1, [&](size_t p, size_t, size_t) {
    const uint32_t lo = pa.begin[p];
    const uint32_t a_rows = pa.begin[p + 1] - lo;
    const uint32_t b_rows = pb.begin[p + 1] - pb.begin[p];
    WithTaskIndex(std::max(a_rows, b_rows), [&](FlatMap64& index) {
      std::vector<uint32_t> first;
      IndexFirstOccurrences(b, pb, p, [](uint32_t) { return true; }, &index,
                            &first);
      std::vector<uint8_t> wanted(a_rows);
      for (uint32_t k = lo; k < pa.begin[p + 1]; ++k) {
        const uint32_t i = pa.rows[k];
        const bool member = index.Find(pa.keys[k], [&](uint32_t id) {
                              return RowEqualsAcross(a, i, b, first[id]);
                            }) != FlatMap64::kNone;
        wanted[k - lo] = member == want_member ? 1 : 0;
      }
      IndexFirstOccurrences(
          a, pa, p, [&](uint32_t k) { return wanted[k - lo] != 0; }, &index,
          &first);
      for (uint32_t i : first) keep[i] = 1;
    });
  });
  return GatherKept(a, keep);
}

}  // namespace

StatusOr<Table> Intersect(const Table& a, const Table& b) {
  Span span("kernel.intersect", "kernel");
  static Counter& calls =
      MetricsRegistry::Global().counter("musketeer.relational.intersect.calls");
  static Counter& rows = MetricsRegistry::Global().counter(
      "musketeer.relational.intersect.input_rows");
  calls.Increment();
  rows.Increment(a.num_rows() + b.num_rows());
  if (span.active()) {
    span.SetAttr("left_rows", std::to_string(a.num_rows()));
    span.SetAttr("right_rows", std::to_string(b.num_rows()));
  }
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return InvalidArgumentError("INTERSECT arity mismatch");
  }
  Table out = SetOpFilter(a, b, /*want_member=*/true);
  out.set_scale(std::max(a.scale(), b.scale()));
  return out;
}

StatusOr<Table> Difference(const Table& a, const Table& b) {
  Span span("kernel.difference", "kernel");
  static Counter& calls = MetricsRegistry::Global().counter(
      "musketeer.relational.difference.calls");
  static Counter& rows = MetricsRegistry::Global().counter(
      "musketeer.relational.difference.input_rows");
  calls.Increment();
  rows.Increment(a.num_rows() + b.num_rows());
  if (span.active()) {
    span.SetAttr("left_rows", std::to_string(a.num_rows()));
    span.SetAttr("right_rows", std::to_string(b.num_rows()));
  }
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return InvalidArgumentError("DIFFERENCE arity mismatch");
  }
  Table out = SetOpFilter(a, b, /*want_member=*/false);
  out.set_scale(a.scale());
  return out;
}

Table Distinct(const Table& in) {
  Span span("kernel.distinct", "kernel");
  static Counter& calls =
      MetricsRegistry::Global().counter("musketeer.relational.distinct.calls");
  static Counter& rows = MetricsRegistry::Global().counter(
      "musketeer.relational.distinct.input_rows");
  calls.Increment();
  rows.Increment(in.num_rows());
  if (span.active()) {
    span.SetAttr("rows", std::to_string(in.num_rows()));
  }
  // Equal rows share a partition, so each partition keeps its own first
  // occurrences.
  const int bits = JoinPartitionBits(in.num_rows());
  const PartitionedRows part = PartitionFullRows(in, bits);
  std::vector<uint8_t> keep(in.num_rows(), 0);
  ParallelChunks(size_t{1} << bits, 1, [&](size_t p, size_t, size_t) {
    WithTaskIndex(part.begin[p + 1] - part.begin[p], [&](FlatMap64& index) {
      std::vector<uint32_t> first;
      IndexFirstOccurrences(in, part, p, [](uint32_t) { return true; },
                            &index, &first);
      for (uint32_t i : first) keep[i] = 1;
    });
  });
  return GatherKept(in, keep);
}

namespace {

// What GROUP BY accumulates per group besides the row count: the running
// SUM, MIN or MAX of one column. Each AggFn reads only what it needs — SUM
// a sum, MIN a min, MAX a max, AVG a sum and the count, COUNT the count —
// and aggregates over the same (stat, column) share one accumulator.
enum class StatKind { kSum, kMin, kMax };

struct StatSpec {
  StatKind kind;
  int column;
};

// How GROUP BY keys rows for FlatMap64: a single INT64 group column keys
// exactly; any other key — a DOUBLE, several columns, a string, or none at
// all — keys on the row hash and compares the group cells.
enum class GroupKey { kInt64, kHashed };

// Validated group-by shapes.
struct GroupPlan {
  Schema out_schema;
  GroupKey key = GroupKey::kHashed;
  std::vector<StatSpec> stats;
  std::vector<int> stat_of_agg;  // agg → index into stats, -1 for COUNT
  bool needs_count = false;
};

StatusOr<GroupPlan> PlanGroupBy(const Schema& in_schema,
                                const std::vector<int>& group_columns,
                                const std::vector<AggSpec>& aggs) {
  for (int c : group_columns) {
    if (c < 0 || c >= static_cast<int>(in_schema.num_fields())) {
      return InvalidArgumentError("GROUP BY column out of range");
    }
  }
  for (const AggSpec& a : aggs) {
    if (a.fn == AggFn::kCount) {
      continue;
    }
    if (a.column < 0 || a.column >= static_cast<int>(in_schema.num_fields())) {
      return InvalidArgumentError("AGG column out of range");
    }
    if (in_schema.field(a.column).type == FieldType::kString) {
      // Strings have no numeric view (see AsDouble's sentinel); reject
      // instead of aggregating NaNs.
      return InvalidArgumentError(std::string(AggFnName(a.fn)) +
                                  " over STRING column '" +
                                  in_schema.field(a.column).name + "'");
    }
  }
  GroupPlan plan;
  for (int c : group_columns) {
    plan.out_schema.AddField(in_schema.field(c));
  }
  for (const AggSpec& a : aggs) {
    FieldType t = FieldType::kDouble;
    if (a.fn == AggFn::kCount) {
      t = FieldType::kInt64;
    } else if (in_schema.field(a.column).type == FieldType::kInt64 &&
               (a.fn == AggFn::kSum || a.fn == AggFn::kMin ||
                a.fn == AggFn::kMax)) {
      t = FieldType::kInt64;
    }
    plan.out_schema.AddField({a.output_name, t});

    int stat = -1;
    if (a.fn != AggFn::kCount) {
      const StatKind kind = a.fn == AggFn::kMin   ? StatKind::kMin
                            : a.fn == AggFn::kMax ? StatKind::kMax
                                                  : StatKind::kSum;
      for (size_t s = 0; s < plan.stats.size(); ++s) {
        if (plan.stats[s].kind == kind && plan.stats[s].column == a.column) {
          stat = static_cast<int>(s);
        }
      }
      if (stat < 0) {
        stat = static_cast<int>(plan.stats.size());
        plan.stats.push_back({kind, a.column});
      }
    }
    plan.stat_of_agg.push_back(stat);
    plan.needs_count |= a.fn == AggFn::kCount || a.fn == AggFn::kAvg;
  }
  if (group_columns.size() == 1 &&
      in_schema.field(group_columns[0]).type == FieldType::kInt64) {
    plan.key = GroupKey::kInt64;
  }
  return plan;
}

// One morsel's partial aggregate. Its groups ("slots") are numbered in
// first-occurrence order within the morsel; accumulators are flat
// slot-indexed arrays starting from (0.0, +inf, -inf, 0).
struct MorselGroups {
  std::vector<uint32_t> first_row;         // slot → first input row
  std::vector<std::vector<double>> stats;  // stat → slot → accumulator
  std::vector<int64_t> counts;             // slot → rows (if needed)
  std::vector<uint32_t> group;             // slot → global group id
};

// True when rows i and j of `in` agree on every column of `cols`.
bool RowsEqualOn(const Table& in, const std::vector<int>& cols, size_t i,
                 size_t j) {
  for (int c : cols) {
    if (!in.col(c).EqualAt(i, in.col(c), j)) return false;
  }
  return true;
}

// Calls fn(key, same) with the row keying `plan.key` needs: key(row) is a
// row's 64-bit key and same(a, b) group-key equality (see AssignIds). Exact
// keys read the group column and need no comparison; hashed keys read
// `row_hashes` and compare the group cells.
template <typename Fn>
void WithGroupKeys(const GroupPlan& plan, const Table& in,
                   const std::vector<int>& group_columns,
                   const std::vector<uint64_t>& row_hashes, const Fn& fn) {
  const auto exact = [](uint32_t, uint32_t) { return true; };
  switch (plan.key) {
    case GroupKey::kInt64: {
      const int64_t* v = in.col(group_columns[0]).ints().data();
      fn([v](size_t row) { return static_cast<uint64_t>(v[row]); }, exact);
      return;
    }
    case GroupKey::kHashed:
      fn([&](size_t row) { return row_hashes[row]; },
         [&](uint32_t a, uint32_t b) {
           return RowsEqualOn(in, group_columns, a, b);
         });
      return;
  }
}

// Phase 1 of GroupByAgg over rows [begin, end): slots in first-occurrence
// order, then one tight typed loop per accumulator over the morsel's rows
// (per slot, the same row-order operation sequence as a row-at-a-time loop).
MorselGroups AccumulateMorsel(const Table& in,
                              const std::vector<int>& group_columns,
                              const GroupPlan& plan,
                              const std::vector<uint64_t>& row_hashes,
                              size_t begin, size_t end) {
  const size_t n = end - begin;
  MorselGroups part;
  std::vector<uint32_t> slot_of(n);
  part.first_row.reserve(n);
  WithTaskIndex(n, [&](FlatMap64& index) {
    index.Clear(n);
    WithGroupKeys(plan, in, group_columns, row_hashes,
                  [&](const auto& key, const auto& same) {
                    AssignIds(
                        n,
                        [begin](size_t k) {
                          return static_cast<uint32_t>(begin + k);
                        },
                        [&](size_t k) { return key(begin + k); }, same,
                        &index, &part.first_row, slot_of.data());
                  });
  });
  const size_t slots = part.first_row.size();

  part.stats.resize(plan.stats.size());
  for (size_t s = 0; s < plan.stats.size(); ++s) {
    const StatSpec& spec = plan.stats[s];
    std::vector<double>& acc = part.stats[s];
    const auto fold = [&](auto op) {
      const Column& c = in.col(spec.column);
      if (c.type() == FieldType::kInt64) {
        const int64_t* v = c.ints().data() + begin;
        for (size_t k = 0; k < n; ++k) {
          double& a = acc[slot_of[k]];
          a = op(a, static_cast<double>(v[k]));
        }
      } else {
        const double* v = c.doubles().data() + begin;
        for (size_t k = 0; k < n; ++k) {
          double& a = acc[slot_of[k]];
          a = op(a, v[k]);
        }
      }
    };
    switch (spec.kind) {
      case StatKind::kSum:
        acc.assign(slots, 0.0);
        fold([](double a, double v) { return a + v; });
        break;
      case StatKind::kMin:
        acc.assign(slots, std::numeric_limits<double>::infinity());
        fold([](double a, double v) { return std::min(a, v); });
        break;
      case StatKind::kMax:
        acc.assign(slots, -std::numeric_limits<double>::infinity());
        fold([](double a, double v) { return std::max(a, v); });
        break;
    }
  }
  if (plan.needs_count) {
    part.counts.assign(slots, 0);
    for (size_t k = 0; k < n; ++k) ++part.counts[slot_of[k]];
  }
  return part;
}

// Phase 2 of GroupByAgg: global group ids, assigned once from each morsel's
// slots in morsel order — so group order is global first-occurrence order.
// Returns each group's first input row.
std::vector<uint32_t> AssignGroups(const Table& in,
                                   const std::vector<int>& group_columns,
                                   const GroupPlan& plan,
                                   const std::vector<uint64_t>& row_hashes,
                                   std::vector<MorselGroups>* parts) {
  if (parts->size() == 1) {  // one morsel: its slots are the groups
    MorselGroups& only = (*parts)[0];
    only.group.resize(only.first_row.size());
    std::iota(only.group.begin(), only.group.end(), 0);
    return only.first_row;
  }
  size_t total = 0;
  for (const MorselGroups& p : *parts) total += p.first_row.size();
  FlatMap64 index(total);
  std::vector<uint32_t> first_row;
  first_row.reserve(total);
  WithGroupKeys(plan, in, group_columns, row_hashes,
                [&](const auto& key, const auto& same) {
                  for (MorselGroups& p : *parts) {
                    p.group.resize(p.first_row.size());
                    AssignIds(
                        p.first_row.size(),
                        [&p](size_t s) { return p.first_row[s]; },
                        [&](size_t s) { return key(p.first_row[s]); }, same,
                        &index, &first_row, p.group.data());
                  }
                });
  return first_row;
}

// Phases 3 and 4 of GroupByAgg: combine each group's morsel partials along
// the fixed pairwise merge tree and evaluate the aggregates.
//
// The tree is the one that merging partial l+step into partial l, for
// step = 1, 2, 4, ..., builds over the morsels: a binary tree whose node
// combines its children (left, then right) when both hold the group and
// passes the one that does through otherwise. A group's partials are its
// leaves, listed in ascending morsel order; the node joining two of them
// splits the list at the highest bit in which their morsel indices differ.
class GroupTree {
 public:
  GroupTree(const GroupPlan& plan, const std::vector<MorselGroups>& parts,
            size_t num_groups)
      : plan_(plan), num_stats_(plan.stats.size()) {
    // Leaves in CSR form: group → [leaf_begin_[g], leaf_begin_[g + 1]).
    leaf_begin_.assign(num_groups + 1, 0);
    for (const MorselGroups& p : parts) {
      for (uint32_t g : p.group) ++leaf_begin_[g + 1];
    }
    for (size_t g = 0; g < num_groups; ++g) {
      leaf_begin_[g + 1] += leaf_begin_[g];
    }
    leaf_morsel_.resize(leaf_begin_.back());
    leaf_slot_.resize(leaf_begin_.back());
    std::vector<uint32_t> fill(leaf_begin_.begin(), leaf_begin_.end() - 1);
    for (size_t m = 0; m < parts.size(); ++m) {
      for (size_t s = 0; s < parts[m].group.size(); ++s) {
        const uint32_t k = fill[parts[m].group[s]]++;
        leaf_morsel_[k] = static_cast<uint32_t>(m);
        leaf_slot_[k] = static_cast<uint32_t>(s);
      }
    }
    stat_data_.resize(num_stats_ * parts.size());
    count_data_.resize(parts.size());
    for (size_t m = 0; m < parts.size(); ++m) {
      for (size_t t = 0; t < num_stats_; ++t) {
        stat_data_[m * num_stats_ + t] = parts[m].stats[t].data();
      }
      count_data_[m] = parts[m].counts.data();
    }
  }

  size_t num_leaves() const { return leaf_morsel_.size(); }

  // Scratch for Reduce: one stats vector per tree level.
  std::vector<double> NewScratch() const {
    return std::vector<double>(num_stats_ * 33);
  }

  // Reduces group g's partials into stats[0..num_stats) and *count.
  void Reduce(size_t g, double* stats, int64_t* count,
              double* scratch) const {
    ReduceLeaves(leaf_begin_[g], leaf_begin_[g + 1], stats, count, scratch);
  }

 private:
  void ReduceLeaves(uint32_t lo, uint32_t hi, double* stats, int64_t* count,
                    double* scratch) const {
    if (hi - lo == 1) {
      const uint32_t m = leaf_morsel_[lo];
      const uint32_t s = leaf_slot_[lo];
      for (size_t t = 0; t < num_stats_; ++t) {
        stats[t] = stat_data_[m * num_stats_ + t][s];
      }
      if (plan_.needs_count) *count = count_data_[m][s];
      return;
    }
    const uint32_t bit =
        std::bit_floor(leaf_morsel_[lo] ^ leaf_morsel_[hi - 1]);
    const uint32_t mid = static_cast<uint32_t>(
        std::partition_point(
            leaf_morsel_.begin() + lo, leaf_morsel_.begin() + hi,
            [bit](uint32_t m) { return (m & bit) == 0; }) -
        leaf_morsel_.begin());
    ReduceLeaves(lo, mid, stats, count, scratch + num_stats_);
    int64_t right_count = 0;
    ReduceLeaves(mid, hi, scratch, &right_count, scratch + num_stats_);
    for (size_t t = 0; t < num_stats_; ++t) {
      switch (plan_.stats[t].kind) {
        case StatKind::kSum:
          stats[t] += scratch[t];
          break;
        case StatKind::kMin:
          stats[t] = std::min(stats[t], scratch[t]);
          break;
        case StatKind::kMax:
          stats[t] = std::max(stats[t], scratch[t]);
          break;
      }
    }
    *count += right_count;
  }

  const GroupPlan& plan_;
  const size_t num_stats_;
  std::vector<uint32_t> leaf_begin_;
  std::vector<uint32_t> leaf_morsel_;
  std::vector<uint32_t> leaf_slot_;
  std::vector<const double*> stat_data_;  // [morsel * num_stats + stat]
  std::vector<const int64_t*> count_data_;
};

// The output of an empty-input global aggregate: SQL-ish engines return one
// row of zero counts; the paper's operators never hit this edge, but tests
// do.
Row EmptyGlobalRow(const Schema& out_schema, const std::vector<AggSpec>& aggs) {
  Row r;
  for (const AggSpec& a : aggs) {
    if (a.fn == AggFn::kCount ||
        out_schema.field(r.size()).type == FieldType::kInt64) {
      r.push_back(static_cast<int64_t>(0));
    } else {
      r.push_back(0.0);
    }
  }
  return r;
}

}  // namespace

StatusOr<Table> GroupByAgg(const Table& in, const std::vector<int>& group_columns,
                           const std::vector<AggSpec>& aggs) {
  Span span("kernel.group_by", "kernel");
  static Counter& calls =
      MetricsRegistry::Global().counter("musketeer.relational.group_by.calls");
  static Counter& rows = MetricsRegistry::Global().counter(
      "musketeer.relational.group_by.input_rows");
  calls.Increment();
  rows.Increment(in.num_rows());
  if (span.active()) {
    span.SetAttr("rows", std::to_string(in.num_rows()));
  }
  StatusOr<GroupPlan> plan_or = PlanGroupBy(in.schema(), group_columns, aggs);
  if (!plan_or.ok()) return plan_or.status();
  const GroupPlan& plan = plan_or.value();

  // Hashed keys hash every row once, for both phases that look keys up.
  std::vector<uint64_t> row_hashes;
  if (plan.key == GroupKey::kHashed) {
    row_hashes.resize(in.num_rows());
    ParallelChunks(in.num_rows(), kMorselRows,
                   [&](size_t, size_t begin, size_t end) {
                     RowKeyHashes(in, group_columns, begin, end,
                                  row_hashes.data() + begin);
                   });
  }
  // Phase 1: one partial aggregate per morsel. Every AggFn is associative
  // (AVG decomposes into (sum, count)), so partials combine.
  std::vector<MorselGroups> parts = ParallelMapChunks<MorselGroups>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        return AccumulateMorsel(in, group_columns, plan, row_hashes, begin,
                                end);
      });
  const std::vector<uint32_t> first_row =
      AssignGroups(in, group_columns, plan, row_hashes, &parts);
  const size_t num_groups = first_row.size();
  const GroupTree tree(plan, parts, num_groups);

  std::vector<Column> cols;
  cols.reserve(plan.out_schema.num_fields());
  for (int c : group_columns) {
    cols.push_back(in.col(c).Gather(first_row));
  }
  const size_t num_group_cols = group_columns.size();
  for (size_t j = 0; j < aggs.size(); ++j) {
    cols.emplace_back(plan.out_schema.field(num_group_cols + j).type);
    cols.back().Resize(num_groups);
  }
  // Groups are independent, so any chunking of them gives the same bits;
  // the grain spreads about kMorselRows partials over each task.
  const size_t grain = std::max<size_t>(
      1, num_groups * kMorselRows / std::max<size_t>(1, tree.num_leaves()));
  ParallelChunks(num_groups, grain, [&](size_t, size_t begin, size_t end) {
    std::vector<double> stats(plan.stats.size());
    std::vector<double> scratch = tree.NewScratch();
    int64_t count = 0;
    for (size_t g = begin; g < end; ++g) {
      tree.Reduce(g, stats.data(), &count, scratch.data());
      for (size_t j = 0; j < aggs.size(); ++j) {
        const int s = plan.stat_of_agg[j];
        double v = 0;
        switch (aggs[j].fn) {
          case AggFn::kSum:
          case AggFn::kMin:
          case AggFn::kMax:
            v = stats[s];
            break;
          case AggFn::kCount:
            v = static_cast<double>(count);
            break;
          case AggFn::kAvg:
            v = count > 0 ? stats[s] / static_cast<double>(count) : 0;
            break;
        }
        Column& c = cols[num_group_cols + j];
        if (c.type() == FieldType::kInt64) {
          (*c.mutable_ints())[g] = static_cast<int64_t>(v);
        } else {
          (*c.mutable_doubles())[g] = v;
        }
      }
    }
  });
  Table out = Table::FromColumns(plan.out_schema, std::move(cols));
  out.set_scale(in.scale());
  if (group_columns.empty() && in.num_rows() == 0) {
    out.AddRow(EmptyGlobalRow(plan.out_schema, aggs));
  }
  return out;
}

StatusOr<Table> ExtremeRow(const Table& in, int column, bool take_max) {
  if (column < 0 || column >= static_cast<int>(in.schema().num_fields())) {
    return InvalidArgumentError("MIN/MAX column out of range");
  }
  if (in.num_rows() == 0) {
    Table out(in.schema());
    out.set_scale(1.0);
    return out;
  }
  const Column& key = in.col(column);
  // Total order on rows: (key, full-row tie-break); earlier row wins exact
  // duplicates. Per-chunk selection folded in chunk order equals the
  // sequential scan.
  auto better = [&](size_t a, size_t b) {
    int c = key.CompareAt(a, key, b);
    bool strictly = take_max ? (c > 0) : (c < 0);
    return strictly || (c == 0 && Table::CompareRowsAt(in, a, in, b) < 0);
  };
  auto bests = ParallelMapChunks<size_t>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        size_t best = begin;
        for (size_t i = begin + 1; i < end; ++i) {
          if (better(i, best)) best = i;
        }
        return best;
      });
  size_t best = bests[0];
  for (size_t k = 1; k < bests.size(); ++k) {
    if (better(bests[k], best)) best = bests[k];
  }
  Table out = in.Gather({static_cast<uint32_t>(best)});
  out.set_scale(1.0);
  return out;
}

Table SortBy(const Table& in, const std::vector<int>& columns) {
  Span span("kernel.sort", "kernel");
  static Counter& calls =
      MetricsRegistry::Global().counter("musketeer.relational.sort.calls");
  static Counter& rows =
      MetricsRegistry::Global().counter("musketeer.relational.sort.input_rows");
  calls.Increment();
  rows.Increment(in.num_rows());
  if (span.active()) {
    span.SetAttr("rows", std::to_string(in.num_rows()));
  }
  std::vector<const Column*> keys;
  keys.reserve(columns.size());
  for (int c : columns) keys.push_back(&in.col(c));

  // Typed comparator fast paths: hoist the per-row-pair type dispatch of
  // CompareAt out of the sort for the common 1–2 numeric-key shapes. Each
  // fast path reproduces CompareAt's ordering on the raw typed vectors
  // (cmp < 0 ⇔ v[a] < v[b]; cmp == 0 ⇔ v[a] == v[b], including the NaN
  // behavior for doubles), and stable sort has a unique result for a given
  // ordering — so the permutation, and the output, are bit-identical.
  const size_t n = in.num_rows();
  std::vector<uint32_t> perm;
  auto numeric = [](const Column* k) {
    return k->type() == FieldType::kInt64 || k->type() == FieldType::kDouble;
  };
  if (keys.size() == 1 && keys[0]->type() == FieldType::kInt64) {
    const int64_t* v = keys[0]->ints().data();
    perm = ParallelStableSortPerm(
        n, [v](uint32_t a, uint32_t b) { return v[a] < v[b]; });
  } else if (keys.size() == 1 && keys[0]->type() == FieldType::kDouble) {
    const double* v = keys[0]->doubles().data();
    perm = ParallelStableSortPerm(
        n, [v](uint32_t a, uint32_t b) { return v[a] < v[b]; });
  } else if (keys.size() == 2 && numeric(keys[0]) && numeric(keys[1])) {
    auto with_two = [&](auto v0, auto v1) {
      return ParallelStableSortPerm(n, [v0, v1](uint32_t a, uint32_t b) {
        return v0[a] == v0[b] ? v1[a] < v1[b] : v0[a] < v0[b];
      });
    };
    auto with_first = [&](auto v0) {
      return keys[1]->type() == FieldType::kInt64
                 ? with_two(v0, keys[1]->ints().data())
                 : with_two(v0, keys[1]->doubles().data());
    };
    perm = keys[0]->type() == FieldType::kInt64
               ? with_first(keys[0]->ints().data())
               : with_first(keys[0]->doubles().data());
  } else {
    perm = ParallelStableSortPerm(n, [&keys](uint32_t a, uint32_t b) {
      for (const Column* k : keys) {
        int cmp = k->CompareAt(a, *k, b);
        if (cmp != 0) {
          return cmp < 0;
        }
      }
      return false;
    });
  }
  return in.Gather(perm);
}

Table TopNBy(const Table& in, int column, size_t n) {
  const Column& key = in.col(column);
  // Typed descending comparators, replicating CompareAt(a, b) > 0 exactly:
  // for int64 that is v[a] > v[b]; for double it is !(v[a] <= v[b]) (NaN
  // compares "greater" in CompareAt, and !(NaN <= x) is true).
  std::vector<uint32_t> perm;
  if (key.type() == FieldType::kInt64) {
    const int64_t* v = key.ints().data();
    perm = ParallelStableSortPerm(
        in.num_rows(), [v](uint32_t a, uint32_t b) { return v[a] > v[b]; });
  } else if (key.type() == FieldType::kDouble) {
    const double* v = key.doubles().data();
    perm = ParallelStableSortPerm(
        in.num_rows(), [v](uint32_t a, uint32_t b) { return !(v[a] <= v[b]); });
  } else {
    perm = ParallelStableSortPerm(
        in.num_rows(), [&key](uint32_t a, uint32_t b) {
          return key.CompareAt(a, key, b) > 0;
        });
  }
  if (perm.size() > n) {
    perm.resize(n);
  }
  return in.Gather(perm);
}

}  // namespace musketeer
