// Columnar vs row-of-variants data plane: wall-clock time of the hot
// relational kernels (hash join, grouped aggregation at low and high
// cardinality, intersect, sort) on the typed columnar kernels
// (src/relational/ops.cc) against their reference implementation at every
// thread width in {1, 2, 4, 8}.
//
// Three gates, all of which make the binary exit non-zero:
//   * identity: every columnar result is bit-checked (Table::Identical)
//     against its reference at every width, re-asserting the migration
//     contract on big inputs;
//   * the 1.5x single-threaded columnar-vs-row floor on join and group-by;
//   * thread scaling on EVERY op, hardware-aware: the floor at N threads is
//     the op's full 8-thread floor (4x join/group-by, 2.5x sort, none for
//     the high-cardinality group-by and intersect rows) prorated by
//     min(N, hardware_threads)/8, never below 0.85x — so a 4-core host
//     needs 2x from join and group-by at 4 threads, and a 1-core host,
//     where timeslicing cannot speed anything up, only "parallelism must
//     not regress".
//
// Results are written to BENCH_columnar.json as
// [{"op", "rows", "threads", "wall_ms"}, ...] with op names suffixed
// _row / _columnar, plus one "hardware_threads" metadata record so scaling
// numbers can be judged against the host that produced them.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/parallel.h"
#include "src/relational/ops.h"
#include "tests/row_reference.h"

namespace musketeer {
namespace {

constexpr size_t kJoinRows = 1'000'000;
constexpr size_t kAggRows = 2'000'000;
constexpr int64_t kAggGroups = 1024;
// The high-cardinality shape the graph workflows run (groups ≈ rows / 2,
// most groups spanning a single morsel), and the set-op input size.
constexpr size_t kWideAggRows = 500'000;
constexpr int64_t kWideAggGroups = 250'000;
constexpr size_t kSetRows = 500'000;
constexpr double kSpeedupFloor = 1.5;  // join/group-by vs row at 1 thread
constexpr double kScaleRegressionFloor = 0.85;  // N threads vs 1, any host

const std::vector<int> kThreadSweep = {1, 2, 4, 8};

// Deterministic pseudo-random table: key in [0, key_range), an int payload,
// and a double whose summation order is observable in the low bits.
Table MakeInput(size_t rows, int64_t key_range, uint64_t seed) {
  Schema schema({{"k", FieldType::kInt64},
                 {"v", FieldType::kInt64},
                 {"x", FieldType::kDouble}});
  Table t(schema);
  t.Reserve(rows);
  uint64_t state = seed;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    int64_t k = static_cast<int64_t>(state >> 33) % key_range;
    int64_t v = static_cast<int64_t>(state >> 17) % 1000;
    double x = static_cast<double>(static_cast<int64_t>(state % 100003)) / 7.0;
    t.AddRow({k, v, x});
  }
  return t;
}

// Minimum wall-clock milliseconds of `reps` runs; the result of the last run
// is stored in *out for the bit-identity check.
template <typename Fn>
double MinWallMs(int reps, const Fn& fn, Table* out) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    Table result = fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (r == 0 || ms < best) {
      best = ms;
    }
    *out = std::move(result);
  }
  return best;
}

struct BenchOp {
  std::string name;
  size_t rows;
  bool enforce_floor;  // 1.5x columnar-vs-row contract (join / group-by)
  double scale_floor8;  // required col 1t/8t speedup on a >= 8 core host
  std::function<Table()> row;  // reference (row kernels, or unfused pipeline)
  std::function<Table()> col;  // columnar / fused kernel under test
};

// The scaling floor for `threads` workers on this host: the op's full
// 8-thread floor prorated by how many real cores can back those workers
// (min(threads, hw)/8), never below the no-regression floor. On >= 8 cores
// the 8-thread sweep point must hit the full floor; a 1-core host degrades
// every point to "parallelism must not cost more than 15%".
double ScaleFloor(const BenchOp& op, int threads) {
  const int hw = static_cast<int>(HardwareThreads());
  const double effective = static_cast<double>(std::min(threads, hw));
  return std::max(kScaleRegressionFloor, op.scale_floor8 * effective / 8.0);
}

int RunAll() {
  std::printf("Building inputs (%zu join rows, %zu agg rows)...\n", kJoinRows,
              kAggRows);
  // Join sides keyed over [0, rows): ~1 match per probe row, so the output
  // stays join-input-sized instead of exploding quadratically.
  Table join_left = MakeInput(kJoinRows, static_cast<int64_t>(kJoinRows), 42);
  Table join_right = MakeInput(kJoinRows, static_cast<int64_t>(kJoinRows), 7);
  Table agg_in = MakeInput(kAggRows, kAggGroups, 1234);
  std::vector<AggSpec> aggs{{AggFn::kSum, 2, "sx"},
                            {AggFn::kAvg, 2, "ax"},
                            {AggFn::kMin, 1, "mn"},
                            {AggFn::kMax, 1, "mx"},
                            {AggFn::kCount, 0, "c"}};
  const std::vector<int> group_cols = {0};
  const std::vector<int> sort_cols = {0, 1};
  Table wide_agg_in = MakeInput(kWideAggRows, kWideAggGroups, 99);
  // INTERSECT inputs sharing about half their rows: b is a's first half
  // followed by fresh rows.
  Table set_a = MakeInput(kSetRows, static_cast<int64_t>(kSetRows), 5);
  Table set_b = std::move(UnionAll(set_a.Slice(0, kSetRows / 2),
                                   MakeInput(kSetRows / 2,
                                             static_cast<int64_t>(kSetRows),
                                             6)))
                    .value();

  std::vector<BenchOp> ops;
  ops.push_back(
      {"hash_join", kJoinRows, /*enforce_floor=*/true, /*scale_floor8=*/4.0,
       [&] {
         return std::move(rowref::HashJoin(join_left, join_right, 0, 0))
             .value();
       },
       [&] { return std::move(HashJoin(join_left, join_right, 0, 0)).value(); }});
  ops.push_back(
      {"group_by_agg", kAggRows, /*enforce_floor=*/true, /*scale_floor8=*/4.0,
       [&] { return std::move(rowref::GroupByAgg(agg_in, group_cols, aggs)).value(); },
       [&] { return std::move(GroupByAgg(agg_in, group_cols, aggs)).value(); }});
  // No scaling floor of their own: these rows make the high-cardinality
  // and set-op kernels visible and bit-checked, under the no-regression
  // floor only.
  ops.push_back(
      {"group_by_agg_wide", kWideAggRows, /*enforce_floor=*/false,
       /*scale_floor8=*/0,
       [&] {
         return std::move(rowref::GroupByAgg(wide_agg_in, group_cols, aggs))
             .value();
       },
       [&] {
         return std::move(GroupByAgg(wide_agg_in, group_cols, aggs)).value();
       }});
  ops.push_back(
      {"intersect", kSetRows, /*enforce_floor=*/false, /*scale_floor8=*/0,
       [&] { return std::move(rowref::Intersect(set_a, set_b)).value(); },
       [&] { return std::move(Intersect(set_a, set_b)).value(); }});
  ops.push_back({"sort", kAggRows, /*enforce_floor=*/false,
                 /*scale_floor8=*/2.5,
                 [&] { return rowref::SortBy(agg_in, sort_cols); },
                 [&] { return SortBy(agg_in, sort_cols); }});

  PrintHeader("Columnar vs row data plane",
              "wall-clock ms (min of 3); columnar output bit-checked against "
              "its reference at every thread width");
  PrintRow({"op", "rows", "threads", "row_ms", "col_ms", "speedup"});

  BenchJsonWriter json;
  const int hw = static_cast<int>(HardwareThreads());
  // Metadata record: scaling ratios only mean something relative to the
  // cores that produced them.
  json.Add("hardware_threads", 0, hw, 0.0);
  bool ok = true;
  for (const BenchOp& op : ops) {
    std::map<int, double> col_by_threads;
    for (int threads : kThreadSweep) {
      ScopedParallelThreads width(threads);
      Table row_result;
      Table col_result;
      const double row_ms = MinWallMs(3, op.row, &row_result);
      const double col_ms = MinWallMs(3, op.col, &col_result);
      col_by_threads[threads] = col_ms;
      if (!Table::Identical(row_result, col_result)) {
        std::fprintf(stderr,
                     "FATAL: %s columnar output diverges from its reference "
                     "at %d threads\n",
                     op.name.c_str(), threads);
        ok = false;
      }
      const double speedup = row_ms / col_ms;
      if (op.enforce_floor && threads == 1 && speedup < kSpeedupFloor) {
        std::fprintf(stderr,
                     "FATAL: %s single-threaded columnar speedup %.2fx is "
                     "below the %.1fx floor\n",
                     op.name.c_str(), speedup, kSpeedupFloor);
        ok = false;
      }
      json.Add(op.name + "_row", op.rows, threads, row_ms);
      json.Add(op.name + "_columnar", op.rows, threads, col_ms);
      PrintRow({op.name, std::to_string(op.rows), std::to_string(threads),
                Fmt(row_ms, "%.2f"), Fmt(col_ms, "%.2f"),
                Fmt(speedup, "%.2fx")});
    }
    // Thread-scaling gate over the columnar side of the sweep.
    for (int threads : kThreadSweep) {
      if (threads == 1) {
        continue;
      }
      const double scaling = col_by_threads[1] / col_by_threads[threads];
      const double floor = ScaleFloor(op, threads);
      std::printf("%s scaling at %d threads: %.2fx (floor %.2fx, %d core(s))\n",
                  op.name.c_str(), threads, scaling, floor, hw);
      if (scaling < floor) {
        std::fprintf(stderr,
                     "FATAL: %s columnar scaling %.2fx at %d threads is below "
                     "the %.2fx floor (%d hardware thread(s))\n",
                     op.name.c_str(), scaling, threads, floor, hw);
        ok = false;
      }
    }
  }

  const std::string json_path = "BENCH_columnar.json";
  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s, pool spawned %d worker thread(s)\n",
              json_path.c_str(), TaskPool::Global().num_workers());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace musketeer

int main() { return musketeer::RunAll(); }
