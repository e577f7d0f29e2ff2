#include "src/relational/ops.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>
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
// Hash values (partitioning, group buckets) are computed with the exact
// row-of-variants formula (Column::HashAt == HashValue), so engine shuffles
// place the same rows in the same partitions as the row plane did.

namespace musketeer {

namespace {

// Fan-out of the partitioned hash-join build. Fixed (like kMorselRows) so
// the per-partition tables are identical at every thread count.
constexpr size_t kJoinPartitions = 64;

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

bool AggFnIsAssociative(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kCount:
    case AggFn::kMin:
    case AggFn::kMax:
    case AggFn::kAvg:  // decomposes into (sum, count)
      return true;
  }
  return false;
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

// One chunk's worth of (left row, right row) match pairs.
struct JoinPairs {
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;
};

// Scatter phase shared by both probe variants: per-morsel partition buckets
// keyed on Column::HashAt (== HashValue, computed batch-wise via HashRange)
// so partition contents match the row plane and engine shuffles exactly.
std::vector<std::vector<std::vector<uint32_t>>> ScatterByPartition(
    const Column& c) {
  return ParallelMapChunks<std::vector<std::vector<uint32_t>>>(
      c.size(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        std::vector<std::vector<uint32_t>> buckets(kJoinPartitions);
        std::vector<size_t> hashes(end - begin);
        c.HashRange(begin, end, hashes.data());
        for (size_t i = begin; i < end; ++i) {
          buckets[hashes[i - begin] % kJoinPartitions].push_back(
              static_cast<uint32_t>(i));
        }
        return buckets;
      });
}

// Partitioned build + ordered probe, generic (node-based) variant — only the
// string key path still uses it. The per-partition maps key on string_view;
// probe emits in left-row order, matches in right-index order — the fixed
// emission order that makes the join deterministic at any thread count.
template <typename K, typename LGet, typename RGet>
std::vector<JoinPairs> JoinProbe(const Column& lc, const Column& rc,
                                 const LGet& lget, const RGet& rget) {
  auto scattered = ScatterByPartition(rc);

  using PartitionTable = std::unordered_map<K, std::vector<uint32_t>>;
  std::vector<PartitionTable> tables(kJoinPartitions);
  ParallelChunks(kJoinPartitions, 1, [&](size_t p, size_t, size_t) {
    size_t total = 0;
    for (const auto& chunk : scattered) total += chunk[p].size();
    PartitionTable& table = tables[p];
    table.reserve(total);
    for (const auto& chunk : scattered) {
      for (uint32_t ridx : chunk[p]) {
        table[rget(ridx)].push_back(ridx);
      }
    }
  });

  return ParallelMapChunks<JoinPairs>(
      lc.size(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        JoinPairs out;
        for (size_t i = begin; i < end; ++i) {
          const PartitionTable& table = tables[lc.HashAt(i) % kJoinPartitions];
          auto it = table.find(lget(i));
          if (it == table.end()) continue;
          for (uint32_t ridx : it->second) {
            out.lidx.push_back(static_cast<uint32_t>(i));
            out.ridx.push_back(ridx);
          }
        }
        return out;
      });
}

// A typed numeric key for the flat join table: the canonical 64-bit key plus
// a validity bit (false only for NaN double keys, which match nothing).
struct NumKey {
  uint64_t key;
  bool valid;
};

// One build partition in CSR layout: build row indices grouped by key in one
// contiguous array (ascending within each group — the emission order the
// node-based map produced by push_back), indexed by a flat key → group map.
// Probing a key is one FlatMap64 lookup plus a contiguous span scan, instead
// of a node walk through unordered_map buckets.
struct FlatJoinPartition {
  FlatMap64 groups;               // canonical key → group id
  std::vector<uint32_t> offsets;  // group → [start, end) in rows
  std::vector<uint32_t> rows;     // build row indices, grouped, ascending
};

// Flat CSR variant of JoinProbe for numeric keys (int64 and double/mixed).
// Same partitioning, same emission order, same key-equality semantics as the
// node-based variant (see CanonicalDoubleKey for -0.0/NaN) — only the data
// structure changed, so output is bit-identical.
template <typename LKey, typename RKey>
std::vector<JoinPairs> JoinProbeFlat(const Column& lc, const Column& rc,
                                     const LKey& lkey, const RKey& rkey) {
  auto scattered = ScatterByPartition(rc);

  std::vector<FlatJoinPartition> parts(kJoinPartitions);
  ParallelChunks(kJoinPartitions, 1, [&](size_t p, size_t, size_t) {
    FlatJoinPartition& part = parts[p];
    size_t total = 0;
    for (const auto& chunk : scattered) total += chunk[p].size();
    part.groups.Reserve(total);
    // Pass 1: assign group ids in first-occurrence order, count group sizes.
    // Chunks are visited in chunk order and rows ascend within a chunk, so
    // rows arrive in ascending build-index order.
    std::vector<uint32_t> kept_rows;
    std::vector<uint32_t> row_group;
    kept_rows.reserve(total);
    row_group.reserve(total);
    std::vector<uint32_t> counts;
    for (const auto& chunk : scattered) {
      for (uint32_t ridx : chunk[p]) {
        NumKey k = rkey(ridx);
        if (!k.valid) continue;  // NaN build keys can never match
        bool inserted = false;
        uint32_t* g = part.groups.FindOrInsert(
            k.key, static_cast<uint32_t>(counts.size()), &inserted);
        if (inserted) counts.push_back(0);
        ++counts[*g];
        kept_rows.push_back(ridx);
        row_group.push_back(*g);
      }
    }
    // Pass 2: exclusive prefix sum, then scatter rows into their group span
    // (in arrival order, i.e. ascending build index within each group).
    part.offsets.assign(counts.size() + 1, 0);
    for (size_t g = 0; g < counts.size(); ++g) {
      part.offsets[g + 1] = part.offsets[g] + counts[g];
    }
    part.rows.resize(kept_rows.size());
    std::vector<uint32_t> cursor(part.offsets.begin(), part.offsets.end() - 1);
    for (size_t r = 0; r < kept_rows.size(); ++r) {
      part.rows[cursor[row_group[r]]++] = kept_rows[r];
    }
  });

  return ParallelMapChunks<JoinPairs>(
      lc.size(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        JoinPairs out;
        std::vector<size_t> hashes(end - begin);
        lc.HashRange(begin, end, hashes.data());
        for (size_t i = begin; i < end; ++i) {
          NumKey k = lkey(i);
          if (!k.valid) continue;  // NaN probes match nothing
          const FlatJoinPartition& part =
              parts[hashes[i - begin] % kJoinPartitions];
          uint32_t g = part.groups.Find(k.key);
          if (g == FlatMap64::kEmpty) continue;
          for (uint32_t r = part.offsets[g]; r < part.offsets[g + 1]; ++r) {
            out.lidx.push_back(static_cast<uint32_t>(i));
            out.ridx.push_back(part.rows[r]);
          }
        }
        return out;
      });
}

double NumericAt(const Column& c, size_t i) {
  return c.type() == FieldType::kInt64 ? static_cast<double>(c.ints()[i])
                                       : c.doubles()[i];
}

// Key getter factories for JoinProbeFlat.
auto Int64KeyGetter(const std::vector<int64_t>& v) {
  return [&v](size_t i) {
    return NumKey{static_cast<uint64_t>(v[i]), true};
  };
}

auto DoubleKeyGetter(const Column& c) {
  return [&c](size_t i) {
    double d = NumericAt(c, i);
    return NumKey{CanonicalDoubleKey(d), !KeyIsNaN(d)};
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

  // Typed key dispatch.
  std::vector<JoinPairs> pairs;
  if (lstr != rstr) {
    // A string never equals a numeric: empty result.
  } else if (lstr) {
    const std::vector<std::string>& lv = lc.strings();
    const std::vector<std::string>& rv = rc.strings();
    pairs = JoinProbe<std::string_view>(
        lc, rc, [&](size_t i) { return std::string_view(lv[i]); },
        [&](size_t i) { return std::string_view(rv[i]); });
  } else if (lc.type() == FieldType::kInt64 && rc.type() == FieldType::kInt64) {
    pairs = JoinProbeFlat(lc, rc, Int64KeyGetter(lc.ints()),
                          Int64KeyGetter(rc.ints()));
  } else {
    // Mixed numeric (or double-double): key on the double value, which is
    // exactly how ValuesEqual compares an int64 to a double.
    pairs = JoinProbeFlat(lc, rc, DoubleKeyGetter(lc), DoubleKeyGetter(rc));
  }

  size_t total = 0;
  for (const auto& p : pairs) total += p.lidx.size();
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;
  lidx.reserve(total);
  ridx.reserve(total);
  for (const auto& p : pairs) {
    lidx.insert(lidx.end(), p.lidx.begin(), p.lidx.end());
    ridx.insert(ridx.end(), p.ridx.begin(), p.ridx.end());
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

// Hash-bucketed row set over a table: full-row hash → row indices. The
// kernels probe buckets with cross-table row equality, so ints and integral
// doubles keep colliding exactly like the Value-keyed sets did.
using RowBuckets = std::unordered_map<size_t, std::vector<uint32_t>>;

RowBuckets BuildRowBuckets(const Table& t) {
  RowBuckets buckets;
  buckets.reserve(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    buckets[HashRowAllCols(t, i)].push_back(static_cast<uint32_t>(i));
  }
  return buckets;
}

bool BucketsContain(const RowBuckets& buckets, const Table& bt, size_t hash,
                    const Table& t, size_t row) {
  auto it = buckets.find(hash);
  if (it == buckets.end()) {
    return false;
  }
  for (uint32_t cand : it->second) {
    if (RowEqualsAcross(t, row, bt, cand)) {
      return true;
    }
  }
  return false;
}

// INTERSECT / DIFFERENCE share their shape: a parallel membership scan of
// `a` against a hashed row set of `b`, then a sequential first-occurrence
// dedup emitting in `a` order.
Table SetOpFilter(const Table& a, const Table& b, bool want_member) {
  RowBuckets in_b = BuildRowBuckets(b);
  std::vector<uint8_t> keep(a.num_rows(), 0);
  ParallelChunks(a.num_rows(), kMorselRows,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t i = begin; i < end; ++i) {
                     bool member = BucketsContain(in_b, b, HashRowAllCols(a, i),
                                                  a, i);
                     keep[i] = (member == want_member) ? 1 : 0;
                   }
                 });
  RowBuckets emitted;
  std::vector<uint32_t> out_idx;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    if (!keep[i]) continue;
    size_t h = HashRowAllCols(a, i);
    std::vector<uint32_t>& bucket = emitted[h];
    bool dup = false;
    for (uint32_t prev : bucket) {
      if (RowEqualsAcross(a, i, a, prev)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      bucket.push_back(static_cast<uint32_t>(i));
      out_idx.push_back(static_cast<uint32_t>(i));
    }
  }
  return a.Gather(out_idx);
}

}  // namespace

StatusOr<Table> Intersect(const Table& a, const Table& b) {
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return InvalidArgumentError("INTERSECT arity mismatch");
  }
  Table out = SetOpFilter(a, b, /*want_member=*/true);
  out.set_scale(std::max(a.scale(), b.scale()));
  return out;
}

StatusOr<Table> Difference(const Table& a, const Table& b) {
  if (a.schema().num_fields() != b.schema().num_fields()) {
    return InvalidArgumentError("DIFFERENCE arity mismatch");
  }
  Table out = SetOpFilter(a, b, /*want_member=*/false);
  out.set_scale(a.scale());
  return out;
}

Table Distinct(const Table& in) {
  // Chunk-local dedup (preserving chunk order), then a sequential global
  // dedup over the chunk survivors in chunk order — emission order equals
  // global first-occurrence order.
  auto parts = ParallelMapChunks<std::vector<uint32_t>>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        RowBuckets local;
        std::vector<uint32_t> unique;
        for (size_t i = begin; i < end; ++i) {
          size_t h = HashRowAllCols(in, i);
          std::vector<uint32_t>& bucket = local[h];
          bool dup = false;
          for (uint32_t prev : bucket) {
            if (RowEqualsAcross(in, i, in, prev)) {
              dup = true;
              break;
            }
          }
          if (!dup) {
            bucket.push_back(static_cast<uint32_t>(i));
            unique.push_back(static_cast<uint32_t>(i));
          }
        }
        return unique;
      });
  RowBuckets seen;
  std::vector<uint32_t> out_idx;
  for (const auto& part : parts) {
    for (uint32_t i : part) {
      size_t h = HashRowAllCols(in, i);
      std::vector<uint32_t>& bucket = seen[h];
      bool dup = false;
      for (uint32_t prev : bucket) {
        if (RowEqualsAcross(in, i, in, prev)) {
          dup = true;
          break;
        }
      }
      if (!dup) {
        bucket.push_back(i);
        out_idx.push_back(i);
      }
    }
  }
  return in.Gather(out_idx);
}

namespace {

// Partial aggregation over one morsel. Keys live in a columnar sub-table
// (slot order = first-occurrence order); accumulators are flat slot-major
// arrays instead of per-group heap objects.
struct GroupPartial {
  Table keys;
  // Single-INT64-key fast path: key value → slot (flat open addressing; the
  // probe loop is one mix + linear scan over contiguous arrays).
  FlatMap64 int_slots;
  // Generic path: full-key hash (HashRow formula) → candidate slots.
  std::unordered_map<size_t, std::vector<uint32_t>> slots;
  // Flattened [slot * num_aggs + j] accumulators.
  std::vector<double> sums;
  std::vector<double> mins;
  std::vector<double> maxs;
  std::vector<int64_t> counts;
  size_t num_aggs = 0;

  size_t num_slots() const { return keys.num_rows(); }

  void AddSlotAccs() {
    for (size_t j = 0; j < num_aggs; ++j) {
      sums.push_back(0.0);
      mins.push_back(std::numeric_limits<double>::infinity());
      maxs.push_back(-std::numeric_limits<double>::infinity());
      counts.push_back(0);
    }
  }
};

// Folds `b` into `a`. Groups new to `a` append in `b`'s slot order, so the
// merged first-occurrence order equals the first-occurrence order of the
// concatenated inputs; the per-slot combines form the FP summation tree.
void MergeGroupPartial(GroupPartial* a, GroupPartial&& b, bool int_fast_path) {
  const size_t A = a->num_aggs;
  for (size_t slot = 0; slot < b.num_slots(); ++slot) {
    uint32_t dst = std::numeric_limits<uint32_t>::max();
    if (int_fast_path) {
      uint64_t key = static_cast<uint64_t>(b.keys.col(0).ints()[slot]);
      bool inserted = false;
      uint32_t* v = a->int_slots.FindOrInsert(
          key, static_cast<uint32_t>(a->num_slots()), &inserted);
      if (!inserted) dst = *v;
    } else {
      size_t h = HashRowAllCols(b.keys, slot);
      std::vector<uint32_t>& bucket = a->slots[h];
      for (uint32_t cand : bucket) {
        if (RowEqualsAcross(b.keys, slot, a->keys, cand)) {
          dst = cand;
          break;
        }
      }
      if (dst == std::numeric_limits<uint32_t>::max()) {
        bucket.push_back(static_cast<uint32_t>(a->num_slots()));
      }
    }
    if (dst == std::numeric_limits<uint32_t>::max()) {
      a->keys.AppendRowFrom(b.keys, slot);
      for (size_t j = 0; j < A; ++j) {
        a->sums.push_back(b.sums[slot * A + j]);
        a->mins.push_back(b.mins[slot * A + j]);
        a->maxs.push_back(b.maxs[slot * A + j]);
        a->counts.push_back(b.counts[slot * A + j]);
      }
      continue;
    }
    for (size_t j = 0; j < A; ++j) {
      a->sums[dst * A + j] += b.sums[slot * A + j];
      a->mins[dst * A + j] = std::min(a->mins[dst * A + j], b.mins[slot * A + j]);
      a->maxs[dst * A + j] = std::max(a->maxs[dst * A + j], b.maxs[slot * A + j]);
      a->counts[dst * A + j] += b.counts[slot * A + j];
    }
  }
}

// Validated group-by shapes: key and output schemas, int-key fast path.
struct GroupPlan {
  Schema key_schema;
  Schema out_schema;
  bool int_fast_path = false;
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
    plan.key_schema.AddField(in_schema.field(c));
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
  }
  plan.int_fast_path =
      group_columns.size() == 1 &&
      in_schema.field(group_columns[0]).type == FieldType::kInt64;
  return plan;
}

// Accumulates rows [begin, end) of `src` into `part` — the phase-1 inner
// loop of GroupByAgg.
// Slot order is first-occurrence order of keys within the accumulated rows.
void AccumulateGroupRows(GroupPartial* part, const Table& src, size_t begin,
                         size_t end, const std::vector<int>& group_columns,
                         const std::vector<AggSpec>& aggs, bool int_fast_path) {
  const size_t A = aggs.size();
  std::vector<const Column*> agg_cols(A, nullptr);
  for (size_t j = 0; j < A; ++j) {
    if (aggs[j].fn != AggFn::kCount) {
      agg_cols[j] = &src.col(aggs[j].column);
    }
  }
  const std::vector<int64_t>* int_keys =
      int_fast_path ? &src.col(group_columns[0]).ints() : nullptr;
  for (size_t i = begin; i < end; ++i) {
    uint32_t slot = std::numeric_limits<uint32_t>::max();
    if (int_fast_path) {
      bool inserted = false;
      uint32_t* v = part->int_slots.FindOrInsert(
          static_cast<uint64_t>((*int_keys)[i]),
          static_cast<uint32_t>(part->num_slots()), &inserted);
      slot = *v;
      if (inserted) {
        part->keys.AppendRowFromCols(src, i, group_columns);
        part->AddSlotAccs();
      }
    } else {
      size_t h = HashRow(src, i, group_columns);
      std::vector<uint32_t>& bucket = part->slots[h];
      for (uint32_t cand : bucket) {
        bool equal = true;
        for (size_t k = 0; k < group_columns.size(); ++k) {
          if (!src.col(group_columns[k]).EqualAt(i, part->keys.col(k), cand)) {
            equal = false;
            break;
          }
        }
        if (equal) {
          slot = cand;
          break;
        }
      }
      if (slot == std::numeric_limits<uint32_t>::max()) {
        slot = static_cast<uint32_t>(part->num_slots());
        bucket.push_back(slot);
        part->keys.AppendRowFromCols(src, i, group_columns);
        part->AddSlotAccs();
      }
    }
    for (size_t j = 0; j < A; ++j) {
      part->counts[slot * A + j] += 1;
      if (aggs[j].fn == AggFn::kCount) {
        continue;
      }
      double v = NumericAt(*agg_cols[j], i);
      part->sums[slot * A + j] += v;
      part->mins[slot * A + j] = std::min(part->mins[slot * A + j], v);
      part->maxs[slot * A + j] = std::max(part->maxs[slot * A + j], v);
    }
  }
}

// Phase 2 of GroupByAgg: fixed pairwise merge tree over the partials (merge
// chunk 2p+step into 2p each round). The tree shape depends only on the
// chunk count, never the thread count — FP results are bit-stable.
void MergePartialsTree(std::vector<GroupPartial>* partials,
                       bool int_fast_path) {
  for (size_t step = 1; step < partials->size(); step *= 2) {
    size_t pairs = 0;
    for (size_t l = 0; l + step < partials->size(); l += 2 * step) ++pairs;
    ParallelChunks(pairs, 1, [&](size_t p, size_t, size_t) {
      const size_t l = 2 * step * p;
      MergeGroupPartial(&(*partials)[l], std::move((*partials)[l + step]),
                        int_fast_path);
    });
  }
}

// Output fill of GroupByAgg: releases the merged key table, computes the
// aggregate columns slot-parallel, and handles the empty-input
// global-aggregate edge (`emit_empty_global_row`).
Table FinalizeGroupPartials(std::vector<GroupPartial>&& partials,
                            const Schema& out_schema, size_t num_group_cols,
                            const std::vector<AggSpec>& aggs, double scale,
                            bool emit_empty_global_row) {
  const size_t A = aggs.size();
  Table out(out_schema);
  out.set_scale(scale);
  if (!partials.empty()) {
    GroupPartial& groups = partials[0];
    const size_t num_groups = groups.num_slots();
    std::vector<Column> cols = groups.keys.ReleaseColumns();
    cols.resize(out_schema.num_fields());
    // Fill the aggregate output columns slot-parallel (each column is an
    // independent dense array).
    for (size_t j = 0; j < A; ++j) {
      Column& c = cols[num_group_cols + j];
      c = Column(out_schema.field(num_group_cols + j).type);
      c.Resize(num_groups);
    }
    ParallelChunks(num_groups, kMorselRows,
                   [&](size_t, size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) {
        for (size_t j = 0; j < A; ++j) {
          double v = 0;
          switch (aggs[j].fn) {
            case AggFn::kSum:
              v = groups.sums[g * A + j];
              break;
            case AggFn::kCount:
              v = static_cast<double>(groups.counts[g * A + j]);
              break;
            case AggFn::kMin:
              v = groups.mins[g * A + j];
              break;
            case AggFn::kMax:
              v = groups.maxs[g * A + j];
              break;
            case AggFn::kAvg:
              v = groups.counts[g * A + j] > 0
                      ? groups.sums[g * A + j] /
                            static_cast<double>(groups.counts[g * A + j])
                      : 0;
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
    out = Table::FromColumns(out_schema, std::move(cols));
    out.set_scale(scale);
  }

  // Handle the empty-input global aggregate: SQL-ish engines return one row
  // of zero counts; the paper's operators never hit this edge, but tests do.
  if (emit_empty_global_row) {
    Row r;
    for (const AggSpec& a : aggs) {
      if (a.fn == AggFn::kCount) {
        r.push_back(static_cast<int64_t>(0));
      } else if (out_schema.field(r.size()).type == FieldType::kInt64) {
        r.push_back(static_cast<int64_t>(0));
      } else {
        r.push_back(0.0);
      }
    }
    out.AddRow(std::move(r));
  }
  return out;
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

  // Phase 1: thread-local partial aggregates, one per morsel. Every AggFn is
  // associative (AVG decomposes into (sum, count)), so partials combine.
  auto partials = ParallelMapChunks<GroupPartial>(
      in.num_rows(), kMorselRows, [&](size_t, size_t begin, size_t end) {
        GroupPartial part;
        part.num_aggs = aggs.size();
        part.keys = Table(plan.key_schema);
        AccumulateGroupRows(&part, in, begin, end, group_columns, aggs,
                            plan.int_fast_path);
        return part;
      });

  MergePartialsTree(&partials, plan.int_fast_path);
  return FinalizeGroupPartials(
      std::move(partials), plan.out_schema, group_columns.size(), aggs,
      in.scale(), group_columns.empty() && in.num_rows() == 0);
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
