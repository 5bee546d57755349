#!/bin/sh
# Full repository check: build, vet, tests (with race detector; every cmd/
# and examples/ binary runs there against its golden output), and a single
# pass of every benchmark. This is what CI's check job runs.
# Determinism verdicts (soak digests across fan-out widths, GOMAXPROCS,
# concurrent soaks and restarts) are tests in internal/sim; timing is bench/'s job
# (`bash bench/run.sh`, compared parent vs head in CI's bench job).
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== family seam =="
# Code outside the two chain families reaches them through core.Family
# (eth.Client, algorand.Client); a type switch or assertion on a family
# type anywhere else grows the seam back. bench/ is frozen and exempt.
switches="$(grep -rnE --include='*.go' 'case \*(core\.)?(EVMConnector|AlgorandConnector)|case \*(eth|algorand)\.|\.\(\*(core\.)?(EVMConnector|AlgorandConnector)\)' . |
    grep -vE '^\./(internal/eth|internal/algorand|bench)/' || true)"
if [ -n "$switches" ]; then
    echo "family type switch or assertion outside internal/eth and internal/algorand:" >&2
    echo "$switches" >&2
    exit 1
fi

echo "== vet =="
go vet ./...

echo "== tests (race, shuffled) =="
go test -race -shuffle=on ./...

echo "== mutants =="
# The mutant catalogue: every bug in scripts/mutants.txt, planted in a
# throwaway copy of the tree, must fail the regression test its row names.
bash scripts/mutants.sh

echo "== benchmark module tests =="
# bench/ is a nested module (replace agnopol => ../) that ./... skips. Its
# tests drive every workload at 1 % scale through the same public functions
# the repository benchmark calls, so renaming or breaking one fails here
# instead of in a benchmark run.
(cd bench && go test ./...)

echo "== code size =="
# Non-test code lines and exported symbols per package — the "least code"
# trend line; leaves LOC_report.txt for CI to upload as an artifact.
bash scripts/loc.sh > LOC_report.txt
tail -n 1 LOC_report.txt

echo "== code only tests run =="
# internal functions some test binary links but no shipped binary (cmd/,
# examples/, bench/) does; leaves UNREACHED_report.txt for CI to upload
# next to LOC_report.txt. A gate: the list must equal
# scripts/unreached.allow, where every entry names its owner or reason. New
# test-only code fails here, and so does an allowlisted entry that is no
# longer printed (delete its line), so the list can only shrink.
bash scripts/unreached.sh -gate > UNREACHED_report.txt
tail -n 1 UNREACHED_report.txt

echo "== state layer microbenchmarks =="
# 2000 writes over a 10k-key trie per op, straight after a snapshot,
# through an overlay commit, and through the same overlay in marked groups
# of four with every tenth group reverted (OverlayMarkedPutRevert, the
# shape of an Algorand round): allocs/op / 2000 is the allocations one
# state write costs — after a snapshot leaf and value plus one branch copy
# per distinct dirty branch; through an overlay's write buffer leaf and
# value plus the buffer's growth, and nothing for the merge into a base
# that owns its branches — and the marked line must stay at the unmarked
# one. A branch copy is one allocation sized to the branch's children:
# 80 B for a two-child branch, half of all branches (288 B for any branch
# while each held sixteen slots; TriePutOwned read 711 KB/op then, ≈ 410 KB
# since). TrieRootRound is a soak round's state root alone (≈ 6 000 writes
# over an ≈ 8 800-node trie), on one core and on two: what the second
# goroutine Root hashes with buys. TrieResident is the heap a trie of
# 8 200 keys keeps per key (B/key; its ns/op is not a measurement).
# diskstore: BenchmarkOpen is recovery of a ~200k-record log,
# BenchmarkCommitRound one commit of a fully rewritten ~8k-node trie,
# BenchmarkStoreResident the heap a running store keeps per record written
# (B/record; its ns/op is not a measurement). Then what a signature cache
# keeps resident (polcrypto's SigCacheResident: bytes empty and at its 4 096
# verdicts, B/verdict) — every core.System holds one.
# Leaves BENCH_mstate.txt for CI to upload next to LOC_report.txt.
go test -run '^$' -bench 'Trie|Overlay|Open|CommitRound|StoreResident' -benchmem -benchtime 50x -cpu 1,2 ./internal/mstate/... | tee BENCH_mstate.txt
go test -run '^$' -bench 'SigCacheResident' -benchtime 1x ./internal/polcrypto | tee -a BENCH_mstate.txt

echo "== consensus microbenchmarks =="
# What a block costs before it carries a transaction (StepEmpty: Goerli's
# proposer pick, Testnet's 60-VRF proposer sortition — on two cores mostly
# run by the helper the previous Step started, on one inline), on one core
# and on two. Then what a block costs when it is
# full — StepBatch: one 2 000-check-in block per op, executed in canonical
# order and queued off the clock, ns/tx + B/tx + allocs/tx on one core and
# on two — and what it
# leaves behind —
# RetainedPerTx: resident B/tx of the retention window, the number
# TestRetainedBytesPerIncludedTx bounds — and, on Algorand, AppResident:
# the B/app one more application of an already deployed source keeps (its
# state and description; the parsed program is shared). Neither times
# anything, so their ns/op is not a measurement.
# Leaves BENCH_consensus.txt for CI to upload next to BENCH_mstate.
go test -run '^$' -bench StepEmpty -benchmem -benchtime 500x -cpu 1,2 ./internal/eth ./internal/algorand | tee BENCH_consensus.txt
go test -run '^$' -bench 'StepBatch|RetainedPerTx|AppResident' -benchtime 20x -cpu 1,2 ./internal/eth ./internal/algorand | tee -a BENCH_consensus.txt

echo "== parallel matrix =="
# Exercises the worker-pool engine (sequential baseline + 4 workers,
# determinism checked inside) and leaves BENCH_parallel.json for CI to
# upload as an artifact.
go run ./cmd/polbench matrix -parallel 4 -reps 2 > /dev/null

echo "== fault sweep =="
# Reliability smoke: the full pipeline under the default fault profile
# (sequential baseline + parallel re-run, determinism checked inside);
# leaves FAULTS_report.json for CI to upload as an artifact.
go run ./cmd/polbench faults default -rate 0.2 -reps 2 -parallel 4 > /dev/null

echo "== benchmarks (1 iteration) =="
go test -bench=. -benchmem -benchtime=1x ./... > /dev/null

echo "ALL CHECKS PASSED"
