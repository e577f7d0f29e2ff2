#!/usr/bin/env bash
# Full verification gate: normal build + tier-1 suite + a smoke build and run
# of the repository benchmark (perfbench/), then a ThreadSanitizer
# build running the same suite (including service_test and parallel_test, the
# concurrency stresses), then an AddressSanitizer+UBSan build (the columnar
# data plane's typed vectors and index gathers are exactly where an
# off-by-one becomes heap corruption), then a Release build with assertions
# kept live, then the observability gate (instrumentation overhead budget +
# an end-to-end CLI run whose --trace-out file must parse as Chrome
# trace-event JSON), and finally the fault-tolerance gate (the concurrency
# and cancellation fault tests under TSan, a seeded fault-sweep CLI run that
# must recover, and the ExecutionContext plumbing-overhead budget inside
# bench_service_throughput), and lastly the network front door gate (net
# tests under TSan plus a scripted curl session against a live --listen
# server covering submit/status/cancel/metrics, a 429 over-quota burst and
# SIGTERM drain), then the vectorized-kernel gate (Release-build
# thread-scaling floors in bench_columnar_ops plus the kernel and
# engine-equivalence tests under TSan at 8 threads), and finally the
# sharded-execution gate (shard coordinator tests under TSan, a scripted CLI
# run asserting --shards=3 output is byte-identical to --shards=1 under
# random placement and across a seeded mid-run shard death, and
# bench_shard_scaling's locality hit-rate / cross-shard-bytes /
# no-regression acceptance), and lastly the incremental
# gate (the incremental-recomputation tests under TSan, a scripted CLI run
# asserting --incremental output is byte-identical to a plain run, and
# bench_incremental's reused-job / delta-equals-cold acceptance), and
# finally the planner-at-scale gate (the forced re-planning sweep and the
# plan golden test under TSan, the plan golden test in the Release-assert
# tree, a scripted CLI run asserting every --partitioner choice, and a
# re-planning run on three shards, produces byte-identical output, and bench_partitioner_scale's 250 ms planning
# budget on 1000-operator synthetic DAGs plus the DP optimality-gap
# acceptance).
# Run from anywhere;
# builds land in <repo>/build, <repo>/build-tsan, <repo>/build-asan and
# <repo>/build-relassert.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"

echo "== [1/11] normal build + tests =="
cmake -S "$repo" -B "$repo/build" >/dev/null
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"
# The repository benchmark compiles its own Release tree from src/ (under
# .bench_build/); the smoke run builds it, runs every workload at tiny
# sizes and checks the result lines against BENCHMARK.json, so a src/ API
# change that breaks perfbench/ fails here.
python3 "$repo/perfbench/run.py" --smoke

echo "== [2/11] ThreadSanitizer build + tests =="
cmake -S "$repo" -B "$repo/build-tsan" -DMUSKETEER_SANITIZE=thread >/dev/null
cmake --build "$repo/build-tsan" -j "$jobs"
ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs"

echo "== [3/11] AddressSanitizer+UBSan build + tests =="
cmake -S "$repo" -B "$repo/build-asan" -DMUSKETEER_SANITIZE=address >/dev/null
cmake --build "$repo/build-asan" -j "$jobs"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"

echo "== [4/11] Release-with-assertions build + tests =="
cmake -S "$repo" -B "$repo/build-relassert" -DCMAKE_BUILD_TYPE=Release \
      -DMUSKETEER_KEEP_ASSERTS=ON >/dev/null
cmake --build "$repo/build-relassert" -j "$jobs"
ctest --test-dir "$repo/build-relassert" --output-on-failure -j "$jobs"

echo "== [5/11] observability: overhead budget + trace validity =="
# Overhead gate: instrumented-vs-uninstrumented kernel throughput, exits
# non-zero above the 5% budget; writes BENCH_obs_overhead.json.
(cd "$repo/build" && ./bench/bench_obs_overhead)

# End-to-end trace check: run a tiny workflow through the CLI with tracing on
# and validate the emitted file as Chrome trace-event JSON.
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
cat > "$obs_tmp/tiny.beer" <<'EOF'
joined = JOIN lhs, rhs ON lhs.id = rhs.id;
EOF
printf '1,10\n2,20\n3,30\n' > "$obs_tmp/lhs.csv"
printf '1,100\n2,200\n4,400\n' > "$obs_tmp/rhs.csv"
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=out.csv --trace-out=trace.json --metrics \
    tiny.beer > cli_out.txt)
grep -q "musketeer.engine.jobs" "$obs_tmp/cli_out.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$obs_tmp/trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace has no events"
names = {e["name"] for e in events}
for stage in ("stage.parse", "stage.optimize", "stage.partition",
              "stage.codegen", "stage.execute"):
    assert stage in names, f"missing span {stage}"
for e in events:
    assert e["ph"] == "X" and isinstance(e["ts"], (int, float)), e
print(f"trace OK: {len(events)} complete event(s)")
EOF
else
  # No python3: still insist the CLI produced a non-empty trace file.
  test -s "$obs_tmp/trace.json"
  echo "trace written (python3 unavailable, JSON not validated)"
fi

echo "== [6/11] fault tolerance: TSan fault tests + seeded sweep + overhead gate =="
# The concurrency and cancellation fault tests under ThreadSanitizer: workers
# recovering injected faults and racing cancellations against one shared DFS.
"$repo/build-tsan/tests/fault_test" --gtest_filter='*Concurrent*:*Cancel*'

# Seeded fault sweep through the CLI: at rate 0.3 the run must recover every
# injected fault via retries/failover and still produce the join output.
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=fault_out.csv --fault-rate=0.3 --fault-seed=42 \
    --max-retries=3 tiny.beer > fault_cli_out.txt)
test -s "$obs_tmp/fault_out.csv"

# ExecutionContext plumbing-overhead budget: bench_service_throughput exits
# non-zero when the armed retry/injector path keeps <85% of baseline
# service throughput.
(cd "$repo/build" && ./bench/bench_service_throughput)

echo "== [7/11] network front door: scripted client session + TSan net tests =="
# Server tests (HTTP parser, live-socket e2e, non-HTTP input, tenant quotas)
# under ThreadSanitizer: the poll loop, worker pool and client threads all
# share the ticket registry.
"$repo/build-tsan/tests/net_test"

# Scripted session against a live server: one worker held busy by a 300 ms
# simulated dispatch wait, tenant "alice" capped at one queued workflow, so a
# burst of three submits must produce at least one 429 without disturbing
# tenant "bob". Exercises submit/status/cancel/metrics plus SIGTERM drain.
"$repo/build/tools/musketeer" --listen=7477 --serve=1 \
    --quota=alice=1:1:1 --dispatch-latency-ms=300 \
    --input=lhs="$obs_tmp/lhs.csv":id:int,v:int \
    --input=rhs="$obs_tmp/rhs.csv":id:int,w:int \
    > "$obs_tmp/server_out.txt" 2>&1 &
server_pid=$!
for _ in $(seq 1 50); do
  curl -s -o /dev/null http://127.0.0.1:7477/healthz && break
  sleep 0.1
done
curl -sf http://127.0.0.1:7477/healthz | grep -q ok

submit_codes=""
for i in 1 2 3; do
  code=$(curl -s -o "$obs_tmp/submit_$i.json" -w '%{http_code}' \
      -X POST -H 'X-Tenant: alice' -H 'X-Workflow-Id: tiny' \
      --data-binary @"$obs_tmp/tiny.beer" http://127.0.0.1:7477/submit)
  submit_codes="$submit_codes $code"
done
echo "alice submit codes:$submit_codes"
case "$submit_codes" in
  *429*) ;;
  *) echo "expected a 429 over-quota rejection for alice"; exit 1 ;;
esac

# The other tenant is unaffected by alice's quota.
bob_code=$(curl -s -o "$obs_tmp/bob.json" -w '%{http_code}' \
    -X POST -H 'X-Tenant: bob' -H 'X-Workflow-Id: tiny' \
    --data-binary @"$obs_tmp/tiny.beer" http://127.0.0.1:7477/submit)
test "$bob_code" = 202

# Status poll + cancel round-trip on bob's (still queued or running) ticket.
bob_ticket=$(sed -n 's/.*"ticket": \([0-9]*\).*/\1/p' "$obs_tmp/bob.json")
curl -sf "http://127.0.0.1:7477/status/$bob_ticket" | grep -q '"state"'
curl -sf -X POST "http://127.0.0.1:7477/cancel/$bob_ticket" | grep -q '"state"'

# Live metrics include connection counters and per-tenant attribution.
curl -sf http://127.0.0.1:7477/metrics > "$obs_tmp/metrics.txt"
grep -q "musketeer.net.connections.accepted" "$obs_tmp/metrics.txt"
grep -q "musketeer.net.responses.4xx" "$obs_tmp/metrics.txt"
grep -q "musketeer.service.tenant.alice.rejected" "$obs_tmp/metrics.txt"

# Cooperative shutdown: SIGTERM drains connections, then the worker pool.
kill -TERM "$server_pid"
wait "$server_pid" || true
grep -q "shutting down" "$obs_tmp/server_out.txt"

echo "== [8/11] vectorized kernels: Release scaling gate + TSan sweep =="
# Scaling gate: bench_columnar_ops sweeps threads {1,2,4,8} over every op and
# exits non-zero when a floor is missed. Floors are hardware-aware: an op's
# full 8-thread floor (4x for hash_join and group_by_agg, 2.5x for sort) is
# prorated by min(threads, cores)/8 and never drops below the 0.85x
# no-regression floor. So on >= 8 cores join and group-by must reach 4x at 8
# threads, on a 4-core host 2x at 4 threads, and only a 1-core host (where
# timeslicing cannot speed anything up) degrades to no-regression. The
# high-cardinality group-by and intersect rows carry no floor of their own.
# The 1.5x columnar-vs-row single-thread floor always applies to join and
# group-by. Run from the Release tree: scaling ratios in a -O0/-g build are
# not the numbers we ship.
(cd "$repo/build-relassert" && ./bench/bench_columnar_ops)

# The parallel kernels (mask selection, flat-hash join/group-by, index
# exchange) under ThreadSanitizer at full width: every workflow must stay
# Table::Identical across 1/2/4/8 threads through the one interpreter while
# TSan watches the morsel tasks share partial buffers.
MUSKETEER_THREADS=8 "$repo/build-tsan/tests/column_test"
# The flat hash kernels share per-row scratch arrays across morsel tasks
# (join spans, set-op membership, group-by slots): TSan watches every
# kernel's 1-vs-N-thread bit-identity check.
MUSKETEER_THREADS=8 "$repo/build-tsan/tests/parallel_test" \
    --gtest_filter='KernelBitIdentityTest.*'
MUSKETEER_THREADS=8 "$repo/build-tsan/tests/engine_equivalence_test" \
    --gtest_filter='*Parallel*:*RowReference*:*InterpreterBitIdentical*'

echo "== [9/11] sharded execution: TSan coordinator tests + CLI bit-identity + scaling gate =="
# The shard coordinator under ThreadSanitizer: job attempts run on the
# calling thread against per-shard DFS views of one ShardedDfs, and
# ConcurrentRunsStayIdentical has four callers share one coordinator, its
# directory, fetch counters and per-shard attempt slots.
"$repo/build-tsan/tests/shard_test" \
    --gtest_filter='ShardCoordinatorTest.*:*SeededShardDeath*'
# Forced mid-run re-planning through the 3-shard coordinator: the suffix
# re-plan happens in Execute's loop, between the placed job attempts.
"$repo/build-tsan/tests/planner_scale_test" \
    --gtest_filter='ReplanningTest.NineWorkflowsStayIdenticalUnderForcedReplan'

# Scripted CLI bit-identity: the same workflow at --shards=1 and --shards=3
# (at 3 shards also with random placement, and with a mid-run shard death)
# must produce byte-identical output files: placement never changes the bits.
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=shard1.csv --shards=1 tiny.beer > shard1_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=shard3.csv --shards=3 tiny.beer > shard3_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=shard3f.csv --shards=3 --shard-fault=0@1 \
    --max-retries=3 tiny.beer > shard3f_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=shard3r.csv --shards=3 --placement=random \
    tiny.beer > shard3r_out.txt)
cmp "$obs_tmp/shard1.csv" "$obs_tmp/shard3.csv"
cmp "$obs_tmp/shard1.csv" "$obs_tmp/shard3f.csv"
cmp "$obs_tmp/shard1.csv" "$obs_tmp/shard3r.csv"
grep -q "sharding: 3 shard(s)" "$obs_tmp/shard3_out.txt"

# Scaling + placement gate: the 9-workflow suite across 1/2/3 shards must
# stay bit-identical to unsharded runs, reach >= 80% locality hit rate, beat
# random placement on cross-shard bytes, and not regress wall clock. Writes
# BENCH_shard_scaling.json.
(cd "$repo/build" && ./bench/bench_shard_scaling)

echo "== [10/11] incremental: TSan delta-run tests + CLI bit-identity + bench gate =="
# Incremental recomputation under ThreadSanitizer: delta runs across shards,
# under seeded faults and a forced re-plan, and resubmits through the
# service's worker pool, all against one shared DFS and fingerprint store.
"$repo/build-tsan/tests/stream_test" \
    --gtest_filter='IncrementalTest.*:ServiceIncrementalTest.*'

# Scripted CLI bit-identity: --incremental (fresh process, no prior
# fingerprints) must produce the same bytes as a plain run.
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=plain.csv tiny.beer > plain_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=inc.csv --incremental tiny.beer > inc_out.txt)
cmp "$obs_tmp/plain.csv" "$obs_tmp/inc.csv"

# Incremental reuse gates: after a 1% append the delta run must reuse >= 1
# job and match a cold run over the appended inputs bit for bit. Writes
# BENCH_incremental.json.
(cd "$repo/build-relassert" && ./bench/bench_incremental)

echo "== [11/11] planner at scale: TSan re-planning sweep + CLI strategy selection + latency gate =="
# The online re-planning sweep under ThreadSanitizer: forced mid-run
# re-plans splice new job tails into runs whose outputs must stay
# bit-identical, while morsel workers execute each job in parallel.
"$repo/build-tsan/tests/planner_scale_test" \
    --gtest_filter='ReplanningTest.*:PlannerScaleTest.*'

# Plan golden: the nine workflows under every strategy and the synthetic
# DAGs must plan byte-identically to tests/golden/plans.txt, at one and at
# four threads, under TSan and in the Release-assert tree (-O3 must not
# move a bit of a `%a` cost).
"$repo/build-tsan/tests/plan_golden_test"
"$repo/build-relassert/tests/plan_golden_test"

# Price golden: every job of the nine workflows, each forced onto every
# engine alone, must plan and charge byte-identically to
# tests/golden/prices.txt in the Release-assert tree too.
"$repo/build-relassert/tests/price_golden_test"

# Scripted CLI strategy selection: every built-in partitioner must produce
# byte-identical output on the same workflow (also when the run re-plans on
# three shards), the report must name the strategy that ran, an unknown
# strategy name must be rejected with the list of known ones, and a schema
# spec with an empty column name must be rejected.
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=part_auto.csv --partitioner=auto tiny.beer > part_auto_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=part_dp.csv --partitioner=dp --replan-threshold=0.5 \
    tiny.beer > part_dp_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=part_ex.csv --partitioner=exhaustive tiny.beer > part_ex_out.txt)
(cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv:id:int,v:int --input=rhs=rhs.csv:id:int,w:int \
    --output=joined=part_shard.csv --shards=3 --partitioner=dp \
    --replan-threshold=0.5 tiny.beer > part_shard_out.txt)
cmp "$obs_tmp/part_auto.csv" "$obs_tmp/part_dp.csv"
cmp "$obs_tmp/part_auto.csv" "$obs_tmp/part_ex.csv"
cmp "$obs_tmp/part_auto.csv" "$obs_tmp/part_shard.csv"
grep -q "exhaustive partitioner" "$obs_tmp/part_auto_out.txt"
grep -q "dp partitioner" "$obs_tmp/part_dp_out.txt"
if "$repo/build/tools/musketeer" --partitioner=bogus tiny.beer \
    > /dev/null 2> "$obs_tmp/part_bogus_err.txt"; then
  echo "expected --partitioner=bogus to be rejected"; exit 1
fi
grep -qF "auto|dp|exhaustive|dp-multi" "$obs_tmp/part_bogus_err.txt"
if (cd "$obs_tmp" && "$repo/build/tools/musketeer" \
    --input=lhs=lhs.csv::int tiny.beer > /dev/null 2>&1); then
  echo "expected --input with an empty column name to be rejected"; exit 1
fi

# Planning-latency gate: seeded synthetic DAGs at 100-1000 operators must
# plan under the 250 ms budget with the production-default strategy, cover
# every operator, and hold the DP-vs-exhaustive 1.5x optimality gap on
# small DAGs. Release tree — planner latency in a -O0 build is not the
# number we ship. Writes BENCH_partitioner_scale.json.
(cd "$repo/build-relassert" && ./bench/bench_partitioner_scale)

echo "== all checks passed =="
