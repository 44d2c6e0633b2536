#!/usr/bin/env bash
# Full check pipeline: the tier-1 verify line (build + ctest), the 10-seed
# crash-recovery oracle, then an AddressSanitizer + UndefinedBehaviorSanitizer
# test pass (RECUP_SANITIZE) and a ThreadSanitizer pass (RECUP_TSAN) over the
# concurrency-heavy subsystems (mofka delivery, chaos pipeline, query
# service, durability/recovery).
#
# Usage: tools/run_checks.sh [--skip-sanitize] [--skip-tsan] [--skip-bench]
set -euo pipefail

cd "$(dirname "$0")/.."
repo_root=$(pwd)

skip_sanitize=0
skip_tsan=0
skip_bench=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) skip_sanitize=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    --skip-bench) skip_bench=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Per-test watchdog: a hung recovery loop (missed lease, stuck replay)
# should fail that one test, not wedge the whole pipeline.
ctest_timeout=300

# Guard against silently-empty --gtest_filter runs: a renamed suite would
# otherwise turn a filtered stage into a no-op that always "passes".
require_filter_matches() {
  local binary=$1 filter=$2
  local matches
  matches=$("$binary" --gtest_list_tests --gtest_filter="$filter" 2>/dev/null |
    grep -c '^  ' || true)
  if [[ "$matches" -eq 0 ]]; then
    echo "error: --gtest_filter='$filter' matches no tests in $binary" >&2
    exit 1
  fi
}

echo "== tier-1 verify: build + ctest =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j"$(nproc)" --timeout "$ctest_timeout")

echo "== crash-recovery oracle: 10-seed byte-identity check =="
# The durability stack end to end: WAL-backed broker, scheduler
# checkpoint/journal restart, and durable ingest cursors under injected
# process crashes. Every seed must reproduce the fault-free views exactly.
require_filter_matches ./build/tests/test_recovery \
  '*CrashRecoveryOracle*:SchedulerLease.*:SchedulerBatchedJournal.*'
./build/tests/test_recovery \
  --gtest_filter='*CrashRecoveryOracle*:SchedulerLease.*:SchedulerBatchedJournal.*' \
  >/dev/null
echo "crash-recovery oracle passed"

echo "== datastore chaos oracle: 10-seed byte-identity under data-plane faults =="
# The out-of-band data plane under randomized fetch-frame drops/truncations
# and forced evictions: wire retries + fingerprint validation must keep
# every provenance view byte-identical to the fault-free run.
require_filter_matches ./build/tests/test_datastore \
  '*DatastoreChaosOracle*:DataStoreCluster.*'
./build/tests/test_datastore \
  --gtest_filter='*DatastoreChaosOracle*:DataStoreCluster.*' >/dev/null
echo "datastore chaos oracle passed"

echo "== scheduler conformance: state-machine suite + 10-seed byte-identity oracle =="
# Property-based conformance over random DAGs and worker-kill interleavings
# (legal transition edges, dispatch causality, termination, and transition
# logs pinned to recorded digests), then the byte-identity oracle: every
# provenance view of ten seeds must match its recorded digest, with and
# without chaos faults.
./build/tests/test_scheduler_statemachine >/dev/null
require_filter_matches ./build/tests/test_chaos '*SchedulerEquivalence*'
./build/tests/test_chaos --gtest_filter='*SchedulerEquivalence*' >/dev/null
echo "scheduler conformance passed"

echo "== segstore: 10-seed cold-start oracle + on-disk fsck =="
# The durable columnar segment store: crash-during-flush/compact chaos with
# cold-open byte-identity against in-memory re-ingestion, then an actual
# on-disk store seeded by the CLI and verified by recup_segstore fsck
# (CRC-checked footers + zone maps recomputed from decoded data).
require_filter_matches ./build/tests/test_segstore \
  '*SegstoreCrashOracle*:SegstoreSnapshot.*'
./build/tests/test_segstore \
  --gtest_filter='*SegstoreCrashOracle*:SegstoreSnapshot.*' >/dev/null
segstore_dir=$(mktemp -d "${TMPDIR:-/tmp}/recup_checks_segstore.XXXXXX")
./build/tools/recup_segstore synth "$segstore_dir/store" --runs 5 >/dev/null
./build/tools/recup_segstore fsck "$segstore_dir/store" >/dev/null
./build/tools/recup_segstore compact "$segstore_dir/store" >/dev/null
./build/tools/recup_segstore fsck "$segstore_dir/store" >/dev/null
rm -rf "$segstore_dir"
echo "segstore oracle + fsck passed"

if [[ "$skip_bench" == 1 ]]; then
  echo "== perf trajectory skipped (--skip-bench) =="
else
  echo "== perf trajectory: bench headlines vs committed baseline =="
  # Re-run the query, datastore, and scheduler benches and compare their
  # headline metrics (cold query latencies, wire compression ratio, ingest
  # rates, scheduler transitions/sec) against the last entry in
  # bench_out/trajectory.json. Any metric more than its allowed margin worse —
  # direction-aware — fails the pipeline. After an intentional perf change,
  # refresh the baseline with:
  #   build/tools/bench_trajectory record --trajectory bench_out/trajectory.json \
  #     --label <pr-tag> BENCH_query.json
  bench_dir=$(mktemp -d "${TMPDIR:-/tmp}/recup_checks_bench.XXXXXX")
  (cd "$bench_dir" && "$repo_root/build/bench/bench_query" --out "$bench_dir/out" \
    >/dev/null 2>&1)
  (cd "$bench_dir" && "$repo_root/build/bench/bench_datastore" \
    --out "$bench_dir/out" >/dev/null 2>&1)
  # bench_scheduler exits nonzero if its plain (non-durable) run drops below
  # the 100k transitions/sec floor, independent of the trajectory delta.
  (cd "$bench_dir" && "$repo_root/build/bench/bench_scheduler" \
    --out "$bench_dir/out" >/dev/null 2>&1)
  ./build/tools/bench_trajectory check \
    --trajectory bench_out/trajectory.json --threshold 15 \
    "$bench_dir/BENCH_query.json" "$bench_dir/BENCH_datastore.json" \
    "$bench_dir/BENCH_scheduler.json"
  rm -rf "$bench_dir"

  echo "== repo benchmark: smoke + same-seed determinism =="
  # perfbench's own suite: every workload at tiny size with its output
  # checks, exact counters and query digest repeating for a seed, and
  # stats.py refusing to compare across fingerprints.
  python3 perfbench/test_perfbench.py

  echo "== committed figures: regenerate and byte-compare =="
  # The seeded figure benches are deterministic, so each committed output
  # they produce must regenerate byte for byte. fig3.csv, fig4.csv,
  # fig5.csv, fig6.csv and fig6_categories.csv are stale (they no longer
  # match the current code, though each regenerates deterministically) and
  # stay out of this gate until they are re-recorded.
  fig_dir=$(mktemp -d "${TMPDIR:-/tmp}/recup_checks_figs.XXXXXX")
  for bench in table1 fig7 fig8 ablation; do
    (cd "$fig_dir" && "$repo_root/build/bench/bench_$bench" \
      --out "$fig_dir/out" >/dev/null 2>&1)
  done
  for figure in table1.csv fig7.csv fig8_chart.json fig8_lineage.json \
    ablation.csv; do
    cmp "$fig_dir/out/$figure" "bench_out/$figure"
  done
  rm -rf "$fig_dir"
fi

if [[ "$skip_sanitize" == 1 ]]; then
  echo "== sanitizer pass skipped (--skip-sanitize) =="
  exit 0
fi

echo "== sanitizer pass: ASan + UBSan =="
cmake -B build-asan -S . -DRECUP_SANITIZE=ON -DRECUP_BUILD_BENCH=OFF \
  -DRECUP_BUILD_EXAMPLES=OFF
cmake --build build-asan -j
(cd build-asan && \
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --output-on-failure -j"$(nproc)" --timeout "$ctest_timeout")

echo "== sanitized query service: concurrent smoke + short bench =="
# The query server/ingestor are the most concurrency-heavy code in the repo;
# run their test binary and a short multi-client bench under the sanitizers
# explicitly (ctest above already covers test_query, but the bench path
# exercises the CLI wiring too).
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_query \
  --gtest_filter='QueryIngestTest.*:QueryServer.*' >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tools/recup_query --synthetic 2 --bench 4 10 >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_recovery >/dev/null

echo "== sanitized datastore: blob spill/eviction + concurrent store smoke =="
# The datastore moves raw payload bytes through warabi regions, spill files,
# and wire frames — exactly where an off-by-one read corrupts silently. The
# concurrency smoke (real publisher/fetcher/evictor threads) and the
# BlobStore locking-contract hammer run under ASan/UBSan explicitly.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_datastore >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_mochi --gtest_filter='Warabi.*' >/dev/null

echo "== sanitized segstore: read replicas under concurrent queries =="
# Two read-only replicas serve one segment directory while a writer keeps
# flushing and compacting; every decode runs over mmap'ed bytes, exactly
# where a stale pointer or short read corrupts silently.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_segstore \
  --gtest_filter='SegstoreReplica.*:SegstoreSnapshot.*' >/dev/null

echo "== sanitized wire codec: round-trip + corrupt-frame suite =="
# The binary codec parses untrusted bytes (truncated frames, corrupt tags,
# lying length prefixes); run its property suite under ASan/UBSan where an
# out-of-bounds read or overflow actually traps.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_wire >/dev/null

if [[ "$skip_tsan" == 1 ]]; then
  echo "== TSan pass skipped (--skip-tsan) =="
  exit 0
fi

echo "== TSan pass: concurrent delivery, chaos, and query smokes =="
# ThreadSanitizer is incompatible with ASan, so it gets its own build tree.
# Run the binaries that exercise real threads: the mofka producer/consumer
# (background flush thread vs push/flush/destructor), the chaos pipeline
# (fault injection on those same paths), and the multi-client query service.
cmake -B build-tsan -S . -DRECUP_TSAN=ON -DRECUP_BUILD_BENCH=OFF \
  -DRECUP_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_mofka >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_chaos >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_query \
  --gtest_filter='QueryIngestTest.*:QueryServer.*' >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_recovery >/dev/null
# The datastore's mutex discipline (single store mutex + per-shard BlobStore
# mutexes) and the warabi locking contract, under real racing threads.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_datastore \
  --gtest_filter='DataStoreConcurrency.*:WarabiCapacity.*' >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_mochi \
  --gtest_filter='Warabi.*' >/dev/null
# Segment store under real racing threads: replica refresh + mmap reads vs
# a live writer's flush/compact/GC, and snapshot pins across compaction.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_segstore \
  --gtest_filter='SegstoreReplica.*:SegstoreSnapshot.*' >/dev/null
# Parallel-kernel smoke: force the morsel pool to multiple workers so the
# columnar scan/aggregate fan-outs actually race under TSan.
RECUP_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
  ./build-tsan/tests/test_dataframe >/dev/null
RECUP_THREADS=4 TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_query \
  --gtest_filter='QueryExec.*:QueryWire.*' >/dev/null

echo "== all checks passed (${repo_root}) =="
