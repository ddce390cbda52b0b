#!/bin/sh
# check.sh — the repo's local CI gate: formatting, vet, the full test
# suite, and a benchmark smoke run. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# gate runs one `go test -run ...` gate and additionally fails when any
# listed package matched no test at all, so a renamed or deleted test
# can never turn a gate into a silent pass.
gate() {
    if ! out=$(go test "$@" 2>&1); then
        echo "$out"
        exit 1
    fi
    echo "$out"
    if echo "$out" | grep -q 'no tests to run'; then
        echo "gate matched no tests in a listed package: go test $*" >&2
        exit 1
    fi
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "ok"

echo "== go vet =="
go vet ./...
echo "ok"

echo "== go build =="
go build ./...
echo "ok"

echo "== go test =="
go test ./...

echo "== go test -race =="
# The whole suite again under the race detector: gpu.RunWorkers
# simulates SMs on concurrent goroutines and the experiments pool runs
# concurrent simulations, so every data race is a correctness bug here.
go test -race ./...

echo "== determinism smoke =="
# The parallel-vs-sequential differential tests, twice, under the race
# detector: bit-identical results must not depend on goroutine
# interleaving. TestParallelTraceMatchesSequential is also the proof
# that the trace shards' chunk hand-over (Recorder.Absorb takes each
# SM's chunks, in SM order, after the goroutines joined) is race-free
# and shard-order-deterministic.
gate -race -count=2 -run 'TestParallelMatchesSequential|TestParallelTraceMatchesSequential' ./internal/gpu
# A kernel is a value: one built kernel run in sequence and
# concurrently gives a fresh kernel's counters and memory image every
# time and keeps its own image and content address. A run that wrote
# its kernel is a race here. Gated by name so a rename fails the gate.
gate -race -count=2 -run '^TestKernelIsReusable$' ./internal/gpu
# What is remembered between cycles and between runs never changes a
# result, each gated by name. A trace's shared hit table: no table, an
# empty one, a warm one and four runs filling one at once give identical
# counters and images. A warp's divergence bit: under Config.Check
# (which the tests of internal/sm, internal/gpu and internal/experiments
# run with, so the golden and FuzzRun corpora hold it too), every
# remembered bit equals a scan of the warp's lanes where the idle
# classification reads it.
gate -race -count=2 -run '^TestHitTableNeverChangesAResult$' ./internal/gpu
gate -race -count=2 -run '^TestDivergenceBitMatchesLaneScan$' ./internal/gpu ./internal/sm
# The keyed BVH build reproduces, node for node, the trees the
# reflective sort built (internal/rtcore/testdata).
gate -count=1 -run '^TestBVHMatchesPinnedDigests$' ./internal/rtcore

echo "== fast-forward gate =="
# The two-regime differential layer under the race detector. There is
# one executor; what is gated is basic-block fast-forward, which must
# be bit-identical to the stepped regime (Compiled=false) — counters,
# derived metrics, memory fingerprints — over the golden corpus (both
# regimes), randomized divergent kernels, and the fuzz seed corpus, and
# must die with the same named fetch diagnostic when control flow
# escapes the program. The single definition of the ALU/compare/move
# semantics both regimes share is checked against the independent
# per-op reference; the alloc pin covers both regimes' steady-state
# loops; the compile-pass tests pin the lowering and its
# one-compile-per-program cache.
gate -race -count=1 -run 'TestCompiled|TestGolden|TestFallOffEndDiagnostic' ./internal/gpu ./internal/experiments
gate -race -count=1 -run 'FuzzRun' ./internal/gpu
gate -race -count=1 -run 'TestCompile|TestCompiledSteadyStateZeroAlloc|TestOpsMatchReference|TestReferenceCoversSimpleOps|TestAddressImmediatesZeroExtend' ./internal/isa ./internal/sm
# Blocks keep their own time: the run loop steps a block only where its
# step can change something, and accounts the cycles it sat out in
# closed form. Each gated by name: that loop against the checked
# lock-step loop (Config.Check) on counters, memory images and recorded
# streams over the golden corpus, the families and the example kernels,
# a two-entry TST and DWS included; and every exit — budget kills at
# each phase of a run and beside a sleeping block, the store-footprint
# kill among them, a late deadlock, a cancellation inside a run, the
# cycle limit — settling to lock-step's counters.
gate -race -count=1 -run '^TestExcusedStepsAreNoOps$' -timeout 30m ./internal/gpu
gate -race -count=1 -run '^TestBudgetKillBitIdentical$' ./internal/gpu
for t in TestKillSettlesSleepersAndRuns TestDeadlockSettlesSleepers TestCancelAndCycleLimitInsideARun; do
    gate -race -count=1 -run "^$t\$" ./internal/sm
done

echo "== matrix gate =="
# The cross-matrix differential layer under the race detector: every
# workload-family x scheduler-policy x SI cell must be bit-identical
# across worker counts and across the fast-forward and stepped regimes,
# and the per-family invariants (SI transparency on divergence-free
# GEMM, idle-bucket conservation, schedule-independent work and memory
# images) must hold in every cell.
gate -race -count=1 -run 'TestMatrixDifferential|TestPropertyGEMMSITransparency|TestPropertyGeneratorInvariants' ./internal/gpu

echo "== service smoke =="
# Drive the real sisimd binary end to end: start it on an ephemeral
# port, POST a job twice, require the second response to come from the
# content-addressed cache, then SIGTERM and require a clean drain.
# The exposition test scrapes /metrics in both formats against the
# live daemon: the JSON document must keep its legacy keys and the
# Prometheus rendering must pass the grammar lint with every required
# series present (queue depth, cache hits/misses, per-stage latency,
# SI counters, build info).
gate -count=1 -run 'TestDaemonSmoke|TestDaemonMetricsExposition|TestDaemonVersionFlag' ./cmd/sisimd

echo "== observability gate =="
# The in-process plane: exposition lints, required series pinned,
# trace IDs propagate client header -> spans -> logs -> debug ring,
# and the serving config keeps Block.step allocation-free.
gate -count=1 -run 'TestMetricsContentNegotiation|TestTraceIDPropagationEndToEnd|TestDebugEvents|TestBreakerTransitionEvents' ./internal/server
gate -count=1 -run 'TestServingConfigZeroAlloc|TestBlockStepSteadyStateZeroAlloc' ./internal/sm
# The cycle-trace plane, one gate per test so that a rename fails the
# gate: one recorder exports the same bytes every time and two
# identical runs export identical bytes; the streaming exporter
# reproduces the pinned digests of the documents the reflective
# exporter wrote (internal/trace/testdata); export allocations do not
# grow with the stream, Emit allocates nothing inside a chunk, and
# Absorb moves chunks instead of copying events, also when the event
# limit falls mid-chunk.
for t in TestExportDeterministic TestExportMatchesPinnedDigests \
    TestWriteChromeTraceAllocsIndependentOfLength TestEmitZeroAllocWithinChunk \
    TestAbsorbTakesChunks TestAbsorbLimitFallsMidChunk \
    TestChildInheritsFiltersAndAbsorbAppliesLimit; do
    gate -count=1 -run "^$t\$" ./internal/trace
done

echo "== sandbox gate =="
# The untrusted-kernel pipeline end to end. First the static and
# dynamic layers in isolation: the admission fuzzer's seed corpus, the
# budget-kill bit-identity differentials (regimes and worker counts),
# and the budget-aware cache keys. Then the live gauntlet: a
# race-enabled sisimd is fed the entire hostile corpus over
# POST /v1/submit — every program must be rejected with a structured
# reason or killed within its gas budget, the daemon must stay healthy
# and keep serving well-formed work, and the sample kernels in
# examples/submissions must run through sisim -submit, which applies
# the identical admission checks and budgets locally. The same gauntlet
# posts a body past the front's 16 MiB bound and requires the
# structured 413; TestBadRequests holds that for every POST endpoint.
go test -race -count=1 ./internal/admission
gate -race -count=1 -run 'TestBudget|TestKeyBudget' \
    ./internal/gpu ./internal/simcache
gate -count=1 -run 'TestBudgetedSteadyStateZeroAlloc' ./internal/sm
gate -count=1 -run 'TestDaemonSubmitSandbox' -timeout 10m ./cmd/sisimd
gate -count=1 -run 'TestBadRequests' ./internal/server
gate -count=1 -run 'TestCLISubmitSamples|TestCLISubmitSandbox' ./cmd/sisim

echo "== chaos gate =="
# The fault-injection suites, twice each under the race detector, with
# two fixed chaos seeds: seeded fault schedules must replay
# byte-for-byte, injected faults must never produce a wrong result,
# and the chaos tests' goroutine-leak checks must stay quiet.
for seed in 1 7; do
    echo "-- SISIM_CHAOS_SEED=$seed --"
    export SISIM_CHAOS_SEED=$seed
    gate -race -count=2 -run 'Chaos|Faults' \
        ./internal/server ./internal/simcache
done
SISIM_CHAOS_SEED=1 go test -race -count=1 ./internal/faults
unset SISIM_CHAOS_SEED
# The stranded-waiter regression: a twin that joins a flight whose
# leader is then refused by the full queue must get the leader's 429,
# never hang. It is a race by nature, so it runs five times over.
gate -race -count=5 -run 'TestRefusedLeaderReleasesJoiners' ./internal/server

echo "== cluster gate =="
# The cache-affine cluster layer, race-enabled. The in-process suite
# proves the routing invariants: consistent-hash affinity beats the
# single-node cache baseline on a working set larger than one node's
# LRU, a peer killed mid-sweep reroutes with aggregate batch results
# bit-identical to a single node's, saturated peers relay structured
# 429 backpressure, and with every peer dead the coordinator degrades
# to local serving. The parity table and the Runner conformance test
# are named so that renaming either fails the gate: every error class
# must read the same through the coordinator as from a single node
# (status, Retry-After, body, batch entry), and the node, the peer
# client and the coordinator must honour one Run contract. The daemon
# test then drives a real coordinator + 2-worker topology end to end —
# affinity hits through the coordinator, SIGKILL one worker, identical
# answers after — and the SIGTERM teardown requires a clean drain.
go test -race -count=1 ./internal/cluster
gate -race -count=1 -run 'TestClusterErrorParity' ./internal/cluster
gate -race -count=1 -run 'TestRunnerConformance' ./internal/cluster
gate -count=1 -run 'TestDaemonCluster' ./cmd/sisimd

echo "== coverage floor =="
# Gate total statement coverage just below the current level so test
# debt cannot creep in silently. Raise the floor when coverage rises.
floor=75.0
go test -coverprofile=cover.out ./... > /dev/null
total=$(go tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
rm -f cover.out
if ! awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t >= f) }'; then
    echo "total coverage ${total}% is below the ${floor}% floor" >&2
    exit 1
fi
echo "ok (${total}% >= ${floor}%)"

echo "== benchmark smoke =="
# One iteration of every benchmark (figure regeneration, throughput,
# the zero-alloc hot-loop microbenchmarks, the recorded run and the
# trace exporter) proves the whole bench harness still runs; timing is
# not asserted here.
go test -run '^$' -bench . -benchmem -benchtime 1x . ./internal/sm ./internal/gpu ./internal/trace

if [ "${CHECK_BENCH:-0}" = 1 ]; then
    echo "== repository benchmark =="
    # Opt-in (minutes, and only meaningful on a quiet host): two full
    # sets of the repo benchmark on this host in this invocation. The
    # harness exits non-zero when the sets disagree beyond
    # BENCHMARK.json's bounds or when an exact-repeat count
    # (sim.pass_cycles, sim.pass_instrs, trace.events_per_run) — which
    # is simulated time, so it gates unconditionally — differs.
    go run ./benchmark -seed 1 -sets 2
fi

echo "all checks passed"
