#!/usr/bin/env bash
# Full verification sweep: regular build + tests, the ASan/UBSan suite, the
# parallel miner under TSan, and a static-analysis pass over the SmartCrowd
# contract. Mirrors what CI should run on every change.
#
#   scripts/check.sh            # everything
#   SKIP_TSAN=1 scripts/check.sh  # skip the thread-sanitizer stage
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 2)

echo "== regular build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== scvm_lint: SmartCrowd contract must verify =="
./build/tools/scvm_lint --smartcrowd --quiet
./build/tools/scvm_lint --smartcrowd --json >/dev/null

echo "== scvm_lint --deep: symbolic invariant proofs (60s budget) =="
# The deep pass must prove both economic invariants on SmartCrowd and refute
# every adversarial-corpus contract, well inside a CI-friendly wall clock.
timeout 60 ./build/tools/scvm_lint --smartcrowd --deep --quiet
timeout 60 ./build/tools/scvm_lint --corpus

echo "== sc_metrics_dump: valid + deterministic Prometheus output =="
./build/tools/sc_metrics_dump --seed 7 --prom build/metrics_a.prom --check
./build/tools/sc_metrics_dump --seed 7 --prom build/metrics_b.prom --check
cmp build/metrics_a.prom build/metrics_b.prom

echo "== trie differential fuzz: 400 rounds incremental vs full recompute =="
SC_TRIE_FUZZ_ROUNDS=400 ctest --test-dir build --output-on-failure -R TrieDifferentialFuzz

echo "== store: 200 randomized kill-point crash-recovery trials =="
SC_CRASH_TRIALS=200 ./build/tests/store_crash_test

echo "== failpoint matrix: 200 seeded chaos schedules =="
# Crash/partition/disk-fault schedules against 5-node durable clusters;
# every schedule must converge to one byte-identical head, conserve supply
# and leave reopenable stores (docs/robustness.md).
./build/tools/sc_chaos --schedules 200

echo "== failpoint overhead: disabled fault::point must stay free =="
./build/tools/sc_chaos --overhead

echo "== ASan/UBSan build + tests =="
cmake -B build-asan -S . -DSC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$jobs"
ctest --test-dir build-asan --output-on-failure -j "$jobs"

echo "== ASan/UBSan: state differential (journaled vs copy-based oracle) =="
ctest --test-dir build-asan --output-on-failure -R StateDifferential

echo "== ASan/UBSan: Merkle trie + state commitment differential fuzz =="
# The trie's index-pool splicing and the commitment's incremental refresh are
# the pointer-heavy paths behind every state_root — rerun them sanitized with
# a cranked random delta stream.
SC_TRIE_FUZZ_ROUNDS=200 ctest --test-dir build-asan --output-on-failure \
  -R "TrieDifferentialFuzz|MerkleTrie|StateCommitment"

echo "== ASan/UBSan: sealed-template adoption =="
# A held template moves its delta and receipts from build_block_template into
# the matching submit_block — rerun the adoption suite sanitized.
ctest --test-dir build-asan --output-on-failure -R ChainTemplate

echo "== ASan/UBSan: store byte layer + serialization fuzz =="
# Torn-tail repair, recovery and the codec round-trip/bit-flip fuzzers are
# exactly the code that touches raw buffers — rerun them sanitized.
ctest --test-dir build-asan --output-on-failure -R "RecordLog|TipJournal|Crc32|StoreCodecFuzz"

echo "== ASan/UBSan: failpoint framework + chaos smoke =="
# The fault units hit every store degradation path; a sanitized chaos batch
# sweeps the crash/partition/disk-fault machinery for memory errors.
ctest --test-dir build-asan --output-on-failure -R "Fault"
SC_CHAOS_SCHEDULES=4 ctest --test-dir build-asan --output-on-failure -R Chaos

echo "== ASan/UBSan: symbolic execution engine (120s budget) =="
# Solver + explorer + witness replay under sanitizers: the symex unit tests
# plus the sanitized deep/corpus lint passes.
ctest --test-dir build-asan --output-on-failure -R Symex
timeout 120 ./build-asan/tools/scvm_lint --smartcrowd --deep --quiet
timeout 120 ./build-asan/tools/scvm_lint --corpus

if [ -z "${SKIP_TSAN:-}" ]; then
  echo "== TSan: parallel PoW miner =="
  cmake -B build-tsan -S . -DSC_SANITIZE=thread >/dev/null
  cmake --build build-tsan --target chain_test -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -R MineParallel

  echo "== TSan: parallel executor differential (vs sequential + legacy) =="
  cmake --build build-tsan --target chain_parallel_test -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -R ParallelExec

  echo "== TSan: sealed-template adoption at 4 lanes =="
  cmake --build build-tsan --target chain_template_test -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -R "ChainTemplate.*FourLanes"

  echo "== TSan: crash/restart + pull-sync node tests =="
  cmake --build build-tsan --target core_node_test -j "$jobs"
  ctest --test-dir build-tsan --output-on-failure -R "Partition|CatchesUp|Restarts|Orphan|Sync"
fi

echo "== all checks passed =="
