#!/bin/sh
# Full repository check: build, vet, tests (with race detector), examples,
# and a single pass of every benchmark. This is what CI would run.
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

echo "== vet =="
go vet ./...

echo "== tests (race, shuffled) =="
go test -race -shuffle=on ./...

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

echo "== state layer microbenchmarks =="
# 2000 writes over a 10k-key trie per op, straight, through an overlay
# commit, and through the same overlay in marked groups of four with every
# tenth group reverted (OverlayMarkedPutRevert, the shape of an Algorand
# shard): allocs/op / 2000 is the allocations one state write costs (leaf
# and value, plus one branch copy per distinct dirty branch and layer) —
# the marked line must stay at the unmarked one.
# diskstore: BenchmarkOpen is recovery of a ~200k-record log,
# BenchmarkCommitRound one commit of a fully rewritten ~8k-node trie,
# BenchmarkStoreResident the heap a running store keeps per record written
# (B/record; its ns/op is not a measurement).
# Leaves BENCH_mstate.txt for CI to upload next to LOC_report.txt.
go test -run '^$' -bench 'Trie|Overlay|Open|CommitRound|StoreResident' -benchmem -benchtime 50x ./internal/mstate/... | tee BENCH_mstate.txt

echo "== consensus + telemetry microbenchmarks =="
# What a block costs before it carries a transaction (StepEmpty: Goerli's
# proposer pick, Testnet's 60-VRF proposer sortition), what asking for its
# evidence costs (Attestations, Certificate — not paid by Step), and one
# Telemetry.Tick on a soak's registry (bytes/op is the per-tick registry
# copy). Then what a block costs when it is full — StepBatch: one sharded
# 2 000-check-in block per op, queued off the clock, ns/tx + B/tx +
# allocs/tx on one core and on two — and what it leaves behind —
# RetainedPerTx: resident B/tx of the retention window, the number
# TestRetainedBytesPerIncludedTx bounds (its ns/op is not a measurement).
# Leaves BENCH_consensus.txt for CI to upload next to BENCH_mstate.
go test -run '^$' -bench 'StepEmpty|Attestations|Certificate|Tick$' -benchmem -benchtime 500x -cpu 2 ./internal/eth ./internal/algorand ./internal/sim | tee BENCH_consensus.txt
go test -run '^$' -bench 'StepBatch|RetainedPerTx' -benchtime 20x -cpu 1,2 ./internal/eth ./internal/algorand | tee -a BENCH_consensus.txt

echo "== examples =="
for ex in quickstart crowdsensing geofence badgehunt greentoken; do
    echo "-- examples/$ex"
    go run "./examples/$ex" > /dev/null
done

echo "== tools =="
# Every shipped source must compile from its file the way core compiles the
# embedded copy.
for src in contracts/*.pol; do
    go run ./cmd/polc -src "$src" > /dev/null
done
go run ./cmd/polsim -chain algorand > /dev/null

echo "== parallel matrix =="
# Exercises the worker-pool engine (sequential baseline + 4 workers,
# determinism checked inside) and leaves BENCH_parallel.json for CI to
# upload as an artifact.
go run ./cmd/polbench -matrix -parallel 4 -reps 2 -benchout BENCH_parallel.json > /dev/null

echo "== fault sweep =="
# Reliability smoke: the full pipeline under the default fault profile
# (sequential baseline + parallel re-run, determinism checked inside);
# leaves FAULTS_report.json for CI to upload as an artifact.
go run ./cmd/polbench -faults default -faultrate 0.2 -reps 2 -parallel 4 -faultsout FAULTS_report.json > /dev/null

echo "== sharded soak =="
# Throughput smoke: serial baseline + 4-shard run over the same workload
# (bit-identity checked inside); leaves BENCH_throughput.json for CI to
# gate against the committed baseline and upload as an artifact.
go run ./cmd/polbench -soak -areas 8 -soakusers 32 -soakrounds 15 -shards 4 -benchout BENCH_throughput.json > /dev/null
# State gate on the smoke record: serial and sharded runs must agree on
# the world-state Merkle root. The memory bound is loose here because at
# 32 users fixed process heap dominates bytes/user; the default 8192
# bound applies to the committed full-scale soak record.
go run ./cmd/benchgate -kind state -fresh BENCH_throughput.json -maxbytesperuser 2000000

echo "== cross-chain soak =="
# Agnosticism smoke: one soak spread over goerli + polygon + algorand at
# once (concurrent and sequential interleavings compared inside the run),
# executed twice to check the whole record's per-backend digests are
# bit-identical across processes, then the crosschain gate against the
# committed baseline.
cc_tmp="$(mktemp -d)"
go run ./cmd/polbench -soak -soakchain all -areas 6 -soakusers 24 -soakrounds 10 -shards 2 \
    -benchout "$cc_tmp/run1.json" > /dev/null
go run ./cmd/polbench -soak -soakchain all -areas 6 -soakusers 24 -soakrounds 10 -shards 2 \
    -benchout "$cc_tmp/run2.json" > /dev/null
cc_digests1="$(grep -E '"(digest|digest_sequential|state_root)"' "$cc_tmp/run1.json")"
cc_digests2="$(grep -E '"(digest|digest_sequential|state_root)"' "$cc_tmp/run2.json")"
if [ -z "$cc_digests1" ] || [ "$cc_digests1" != "$cc_digests2" ]; then
    echo "cross-chain smoke: per-backend digests diverge across re-runs" >&2
    exit 1
fi
go run ./cmd/benchgate -kind crosschain -fresh "$cc_tmp/run1.json" -baseline ci/baseline/BENCH_throughput.json
rm -rf "$cc_tmp"

echo "== persistence (kill-and-resume) =="
# Crash-safety smoke: an uninterrupted reference soak, then the identical
# workload checkpointing into a state dir and killed with SIGKILL
# mid-flight, then resumed from whatever manifest survived the kill. The
# resumed run must land on the reference digest — restart-from-root is
# bit-exact. The harness is built to a real binary first: SIGKILLing a
# `go run` pid would orphan the child instead of killing the harness. If
# the kill happens to land after the run finished, the resume degrades to
# a digest-preserving no-op and the comparison still holds.
persist_tmp="$(mktemp -d)"
go build -o "$persist_tmp/polbench" ./cmd/polbench
"$persist_tmp/polbench" -soak -areas 4 -soakusers 48 -soakrounds 300 -shards 2 \
    -statedir "$persist_tmp/ref" -checkpoint 20 \
    -benchout "$persist_tmp/ref.json" > /dev/null
"$persist_tmp/polbench" -soak -areas 4 -soakusers 48 -soakrounds 300 -shards 2 \
    -statedir "$persist_tmp/killed" -checkpoint 20 \
    -benchout "$persist_tmp/killed.json" > /dev/null &
kill_pid=$!
tries=0
while [ ! -f "$persist_tmp/killed/MANIFEST" ] && [ $tries -lt 400 ]; do
    tries=$((tries + 1))
    sleep 0.05
done
# The setup checkpoint writes the first manifest right after deployment;
# a short grace period lets the load phase commit a few more before the
# kill lands mid-run.
sleep 0.5
kill -9 "$kill_pid" 2>/dev/null || true
wait "$kill_pid" 2>/dev/null || true
"$persist_tmp/polbench" -soak -statedir "$persist_tmp/killed" -resume \
    -benchout "$persist_tmp/resumed.json" > /dev/null
ref_digest="$(grep '"digest"' "$persist_tmp/ref.json")"
res_digest="$(grep '"digest"' "$persist_tmp/resumed.json")"
if [ -z "$ref_digest" ] || [ "$ref_digest" != "$res_digest" ]; then
    echo "persistence smoke: resumed digest diverges from the uninterrupted reference" >&2
    echo "  reference: $ref_digest" >&2
    echo "  resumed:   $res_digest" >&2
    exit 1
fi
rm -rf "$persist_tmp"

echo "== persistence benchmark =="
# Stop-at-checkpoint + resume vs uninterrupted, on both chain families,
# inside one process (the SIGKILL variant above covers the hard-crash
# path); leaves BENCH_persist.json for CI to gate and upload.
go run ./cmd/polbench -persist -areas 4 -soakusers 12 -soakrounds 10 -shards 2 \
    -benchout BENCH_persist.json > /dev/null
go run ./cmd/benchgate -kind persist -fresh BENCH_persist.json

echo "== serve smoke =="
# Live-telemetry smoke: a soak with the HTTP exposition server attached,
# scraped from outside the process while it is up, then shut down via
# POST /quitquitquit. Leaves HEALTH_report.json for the health gate and
# for CI to upload as an artifact. The throughput record goes to a
# scratch path so this small run cannot clobber the gated
# BENCH_throughput.json written by the sharded-soak section above.
serve_addr="127.0.0.1:19464"
smoke_bench="$(mktemp)"
go run ./cmd/polbench -soak -areas 4 -soakusers 16 -soakrounds 10 \
    -serve "$serve_addr" -servehold 60s -healthout HEALTH_report.json \
    -benchout "$smoke_bench" > /dev/null &
serve_pid=$!
metrics=""
tries=0
while [ $tries -lt 150 ]; do
    if metrics="$(curl -fsS "http://$serve_addr/metrics" 2>/dev/null)" && [ -n "$metrics" ]; then
        break
    fi
    tries=$((tries + 1))
    sleep 0.2
done
if [ -z "$metrics" ]; then
    echo "serve smoke: /metrics never answered" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
health="$(curl -fsS "http://$serve_addr/health")"
if [ -z "$health" ]; then
    echo "serve smoke: /health answered empty" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
curl -fsS -X POST "http://$serve_addr/quitquitquit" > /dev/null
wait "$serve_pid"
rm -f "$smoke_bench"
if [ ! -s HEALTH_report.json ]; then
    echo "serve smoke: HEALTH_report.json was not written" >&2
    exit 1
fi
go run ./cmd/benchgate -kind health -fresh HEALTH_report.json

echo "== vm microbenchmarks =="
# Sanity-checks the u256 fast path against the big.Int reference on the
# deploy+attach workload and leaves BENCH_vm.json for CI to upload as an
# artifact. 1s per engine so the ns/op numbers are comparable to the
# committed ci/baseline/BENCH_vm.json (a 1x run is measurement noise).
go run ./cmd/polbench -vmbench -vmbenchtime 1s -benchout BENCH_vm.json > /dev/null

echo "== precompile smoke =="
# The proof-verification workloads only (-vmfilter), then the vm gate's
# precompile-speedup floor on the fresh record. The record serves as its
# own baseline here: ns/op numbers are not portable across machines, so
# locally the machine-independent precompiled-vs-interpreted ratio is the
# signal; CI gates ns/op regression against the committed baseline.
smoke_vm="$(mktemp)"
go run ./cmd/polbench -vmbench -vmfilter proof_verify -vmbenchtime 1s -benchout "$smoke_vm" > /dev/null
go run ./cmd/benchgate -kind vm -fresh "$smoke_vm" -baseline "$smoke_vm" -minprecompilespeedup 2
rm -f "$smoke_vm"

echo "== benchmarks (1 iteration) =="
go test -bench=. -benchmem -benchtime=1x ./... > /dev/null

echo "ALL CHECKS PASSED"
