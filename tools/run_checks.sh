#!/usr/bin/env bash
# Full check pipeline: the tier-1 verify line (build + ctest), one run of
# each example, the 10-seed crash-recovery oracle, the repo benchmark's
# self-test, the byte-compare of every committed figure, the perf
# trajectory, then an AddressSanitizer + UndefinedBehaviorSanitizer test
# pass (RECUP_SANITIZE) and a ThreadSanitizer pass (RECUP_TSAN) over the
# concurrency-heavy subsystems (mofka delivery, chaos pipeline, query
# service, durability/recovery).
#
# Usage: tools/run_checks.sh [--skip-sanitize] [--skip-tsan] [--skip-bench]
#   --skip-bench skips only the perf trajectory (bench_query,
#   bench_datastore, bench_scheduler and bench_trajectory check); the
#   perfbench self-test and the figure byte-compare always run.
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

echo "== examples: run each once =="
# Tier-1 builds the examples but no test runs them. They drive whole paths
# end to end: streaming_consumer reads the WMS topics back through the
# record schema, provenance_explorer round-trips a run directory and
# answers its identifier lookups through a memory StoreCatalog.
for example in quickstart image_pipeline_study xgboost_variability \
  provenance_explorer streaming_consumer gpu_profile_study insitu_monitor \
  query_service; do
  if ! timeout 300 "./build/examples/$example" >/dev/null; then
    echo "error: example $example failed" >&2
    exit 1
  fi
done
echo "examples passed"

echo "== crash-recovery oracle: 10-seed byte-identity check =="
# The durability stack end to end: WAL-backed broker, scheduler
# checkpoint/journal restart, and durable ingest cursors under injected
# process crashes. Every seed must reproduce the fault-free views exactly.
# SchedulerDurable.* adds the checkpoint suite: strict checkpoint reads,
# mid-submission snapshots pinned to recorded digests, rejected graphs
# that leave no trace and out-of-sequence journal frame bases. BrokerWal.*
# adds the broker WAL: rebuilds with identical offsets and dedup state, and
# replay rejecting records a live call would have rejected. Wal.* adds the
# WAL primitive under all of them: CRC, rotation, torn-tail repair,
# concurrent appends, and typed errors for mid-log corruption, foreign
# segment names and missing segments.
recovery_filter='*CrashRecoveryOracle*:SchedulerLease.*:SchedulerBatchedJournal.*:SchedulerDurable.*:BrokerWal.*:Wal.*'
require_filter_matches ./build/tests/test_recovery "$recovery_filter"
./build/tests/test_recovery --gtest_filter="$recovery_filter" >/dev/null
echo "crash-recovery oracle passed"

echo "== datastore chaos oracle: 10-seed byte-identity under data-plane faults =="
# The out-of-band data plane under randomized fetch-frame drops,
# truncations and transient errors: wire retries + fingerprint validation
# must keep every provenance view byte-identical to the fault-free run.
require_filter_matches ./build/tests/test_datastore \
  '*DatastoreChaosOracle*:DataStoreCluster.*'
./build/tests/test_datastore \
  --gtest_filter='*DatastoreChaosOracle*:DataStoreCluster.*' >/dev/null
echo "datastore chaos oracle passed"

echo "== scheduler conformance: state-machine suite + occupancy index + 10-seed byte-identity oracle =="
# Property-based conformance over random DAGs and worker-kill interleavings
# (legal transition edges, dispatch causality, termination, and transition
# logs pinned to recorded digests), the occupancy index checked against the
# O(W) placement scan it replaced on seeded random load sequences, then the
# byte-identity oracle: every provenance view of ten seeds must match its
# recorded digest, with and without chaos faults.
./build/tests/test_scheduler_statemachine >/dev/null
require_filter_matches ./build/tests/test_scheduler 'OccupancyIndex.*'
./build/tests/test_scheduler --gtest_filter='OccupancyIndex.*' >/dev/null
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
cp -r "$segstore_dir/store" "$segstore_dir/corrupt"
./build/tools/recup_segstore fsck "$segstore_dir/store" >/dev/null
./build/tools/recup_segstore compact "$segstore_dir/store" >/dev/null
./build/tools/recup_segstore fsck "$segstore_dir/store" >/dev/null
# fsck on a corrupted copy: one byte inverted in the middle of two segments
# must fail with exit 1 and name both files (not stop at the first).
corrupt_segments="seg-000000-tasks.rsg seg-000001-transitions.rsg"
for segment in $corrupt_segments; do
  file="$segstore_dir/corrupt/$segment"
  offset=$(( $(stat -c %s "$file") / 2 ))
  byte=$(od -An -tu1 -j "$offset" -N1 "$file" | tr -d ' ')
  printf "$(printf '\\%03o' $(( 255 - byte )))" |
    dd of="$file" bs=1 seek="$offset" conv=notrunc status=none
done
fsck_status=0
./build/tools/recup_segstore fsck "$segstore_dir/corrupt" \
  >"$segstore_dir/fsck.out" 2>&1 || fsck_status=$?
for segment in $corrupt_segments; do
  if [[ "$fsck_status" -ne 1 ]] ||
    ! grep -q "$segment" "$segstore_dir/fsck.out"; then
    echo "error: fsck of a corrupted store must exit 1 naming $segment" \
      "(exit $fsck_status)" >&2
    cat "$segstore_dir/fsck.out" >&2
    exit 1
  fi
done
rm -rf "$segstore_dir"
echo "segstore oracle + fsck passed"

echo "== repo benchmark: smoke + same-seed determinism =="
# perfbench's own suite: every workload at tiny size with its output
# checks, exact counters and query digest repeating for a seed, and
# stats.py refusing to compare across fingerprints.
python3 perfbench/test_perfbench.py

echo "== committed figures: regenerate and byte-compare =="
# The seeded figure benches are deterministic, so each committed output
# they produce must regenerate byte for byte (~2 min, fig3 ~40 s).
fig_dir=$(mktemp -d "${TMPDIR:-/tmp}/recup_checks_figs.XXXXXX")
for bench in table1 fig3 fig4 fig5 fig6 fig7 fig8 ablation; do
  (cd "$fig_dir" && "$repo_root/build/bench/bench_$bench" \
    --out "$fig_dir/out" >/dev/null 2>&1)
done
for figure in table1.csv fig3.csv fig4.csv fig5.csv fig6.csv \
  fig6_categories.csv fig7.csv fig8_chart.json fig8_lineage.json \
  ablation.csv; do
  cmp "$fig_dir/out/$figure" "bench_out/$figure"
done
rm -rf "$fig_dir"
echo "committed figures match"

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
server_filter='QueryIngestTest.*:QueryServer.*'
require_filter_matches ./build-asan/tests/test_query "$server_filter"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_query --gtest_filter="$server_filter" >/dev/null
# The executor suites: plan-time validation and scan column sets, pinned
# result bytes, and late materialization against the scan / filter /
# concat executor it replaced — every per-run mask, gather and dictionary
# merge of the scan runs here under the sanitizers — plus the IR suite,
# whose differential test drives the fingerprint writer over escapes and
# non-finite numbers.
executor_filter='QueryExec.*:QueryPlan.*:QueryIr.*'
require_filter_matches ./build-asan/tests/test_query "$executor_filter"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_query --gtest_filter="$executor_filter" >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tools/recup_query --synthetic 2 --bench 4 10 >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_recovery >/dev/null

echo "== sanitized datastore: blob regions + concurrent store smoke =="
# The datastore moves raw payload bytes through warabi regions and wire
# frames — exactly where an off-by-one read corrupts silently. The
# concurrency smoke (real publisher, fetcher and replica-dropper threads),
# the BlobStore locking-contract hammer and the concurrent yokan puts (the
# broker's KV store, shared by producers and consumers on real threads) run
# under ASan/UBSan explicitly.
mochi_filter='Warabi.*:Yokan.*'
require_filter_matches ./build-asan/tests/test_mochi "$mochi_filter"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_datastore >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_mochi --gtest_filter="$mochi_filter" >/dev/null

echo "== sanitized segstore: pinned snapshots and crafted bytes =="
# Readers pin versions while a writer keeps flushing, compacting and
# collecting garbage; every decode runs over mmap'ed bytes, exactly where a
# stale pointer or short read corrupts silently. The segment and manifest
# suites feed the decoders crafted chunk headers and out-of-range manifest
# fields, where an unchecked length would over-read or over-allocate.
segstore_asan_filter='SegstoreSnapshot.*:SegstoreSegment.*:SegstoreManifest.*'
require_filter_matches ./build-asan/tests/test_segstore "$segstore_asan_filter"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_segstore --gtest_filter="$segstore_asan_filter" \
  >/dev/null

echo "== sanitized wire codec: round-trip + corrupt-frame suite =="
# The binary codec parses untrusted bytes (truncated frames, corrupt tags,
# lying length prefixes); run its property suite under ASan/UBSan where an
# out-of-bounds read or overflow actually traps. The session transcoders
# and the producer's stamps walk frame bytes, and the record schema's wire
# reader walks stored bytes, without a tree: their differential suites
# (against the tree codecs kept as references) run here too.
transcoder_filter='WireCodec.Transcoded*:WireCodec.*SessionFrame*:WireCodec.SkipValue*:WireCodec.Stamping*'
byte_reader_filter='RecordSchema.WireReader*:RecordSchema.JsonText*:RecordSchema.Darshan*:RecordSchema.KindOf*'
require_filter_matches ./build-asan/tests/test_wire "$transcoder_filter"
require_filter_matches ./build-asan/tests/test_schema "$byte_reader_filter"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_wire >/dev/null
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ./build-asan/tests/test_schema --gtest_filter="$byte_reader_filter" \
  >/dev/null

if [[ "$skip_tsan" == 1 ]]; then
  echo "== TSan pass skipped (--skip-tsan) =="
  exit 0
fi

echo "== TSan pass: concurrent delivery, chaos, and query smokes =="
# ThreadSanitizer is incompatible with ASan, so it gets its own build tree.
# Run the binaries that exercise real threads: the mofka producer/consumer
# (concurrent pushers against the flush() barrier and the destructor), the
# chaos pipeline (fault injection on those same paths), and the multi-client
# query service.
cmake -B build-tsan -S . -DRECUP_TSAN=ON -DRECUP_BUILD_BENCH=OFF \
  -DRECUP_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_mofka >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_chaos >/dev/null
require_filter_matches ./build-tsan/tests/test_query "$server_filter"
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_query \
  --gtest_filter="$server_filter" >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_recovery >/dev/null
# The datastore's mutex discipline (single store mutex + per-shard BlobStore
# mutexes), the warabi locking contract and the yokan store, under real
# racing threads.
datastore_tsan_filter='DataStoreConcurrency.*'
require_filter_matches ./build-tsan/tests/test_datastore "$datastore_tsan_filter"
require_filter_matches ./build-tsan/tests/test_mochi "$mochi_filter"
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_datastore \
  --gtest_filter="$datastore_tsan_filter" >/dev/null
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_mochi \
  --gtest_filter="$mochi_filter" >/dev/null
# Segment store under real racing threads: readers pinning versions and
# decoding mmap'ed segments while a writer flushes, compacts and collects
# garbage in the same process.
segstore_tsan_filter='SegstoreSnapshot.*'
require_filter_matches ./build-tsan/tests/test_segstore "$segstore_tsan_filter"
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_segstore \
  --gtest_filter="$segstore_tsan_filter" >/dev/null

echo "== all checks passed (${repo_root}) =="
