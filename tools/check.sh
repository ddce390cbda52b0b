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
# simulates SMs on concurrent goroutines and the experiments plan runs
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
# derived metrics, memory fingerprints — over the golden corpus (under
# Config.Check, which is lock-step), randomized divergent kernels, and
# the fuzz seed corpus, and
# must die with the same named fetch diagnostic when control flow
# escapes the program. The single definition of the ALU/compare/move
# semantics both regimes share is checked against the independent
# per-op reference; the alloc pin covers both regimes' steady-state
# loops; the compile-pass tests pin the successor, run-length,
# dead-write and basic-block analysis and its one-compile-per-program
# cache. A run is a path: it follows forward unconditional branches
# (isa.Compiled.Next), and the compile-pass table of branch shapes, the
# dead write elided past a branch on the path and not off it, and the
# FuzzRun seed whose line hops share blocks between two warps are each
# gated by name so a rename fails.
gate -race -count=1 -run 'TestCompiled|TestGolden|TestFallOffEndDiagnostic' ./internal/gpu ./internal/experiments
gate -race -count=1 -run 'FuzzRun' ./internal/gpu
# A subtest pattern that matches no seed still runs FuzzRun, so the
# seed's own PASS line is required.
out=$(go test -race -count=1 -v -run '^FuzzRun$/^line-hops-shared-blocks$' ./internal/gpu 2>&1) || { echo "$out"; exit 1; }
if ! echo "$out" | grep -q -- '--- PASS: FuzzRun/line-hops-shared-blocks'; then
    echo "$out"
    echo "FuzzRun seed line-hops-shared-blocks did not run" >&2
    exit 1
fi
gate -race -count=1 -run 'TestCompile|TestCompiledSteadyStateZeroAlloc|TestOpsMatchReference|TestReferenceCoversSimpleOps|TestAddressImmediatesZeroExtend' ./internal/isa ./internal/sm
gate -race -count=1 -run '^TestCompileFastForwardRuns$' ./internal/isa
# Fast-forward excuses a block for its warp's simple run because the
# warp scheduler is sticky: every policy keeps the last-issued warp
# while it can issue. Each test is gated by name so a rename fails.
for t in TestPolicyStickiness TestPolicyNoneReady TestLRRScanOrder TestGTOOldestFallback TestWaSPPhaseOrder; do
    gate -race -count=1 -run "^$t\$" ./internal/sm
done
# The float semantics are binary32 on every GOARCH: the widened multiply
# equals the binary32 one bit for bit (subnormal band and NaN payloads
# included), and FFMA rounds its product before the add. arm64 would
# fuse an unrounded a*x + c into one FMADD, so the arm64 assembly of
# internal/sm, package and test binary (whose reference restates FFMA),
# must hold no fused multiply-add.
gate -race -count=1 -run '^TestFmulMatchesFloat32$' ./internal/sm
for build in build "test -c -o /dev/null"; do
    # shellcheck disable=SC2086 # $build is two commands' words
    asm=$(GOARCH=arm64 go $build -gcflags='subwarpsim/internal/sm=-S' ./internal/sm 2>&1)
    if ! echo "$asm" | grep -q 'TEXT.*applySimple'; then
        echo "$asm" >&2
        echo "go $build: no arm64 assembly of applySimple to inspect" >&2
        exit 1
    fi
    if echo "$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[SD]?[[:space:]]'; then
        echo "go $build: internal/sm fuses a float multiply-add on arm64" >&2
        exit 1
    fi
done
# Blocks keep their own time: the run loop steps a block only where its
# step can change something, and accounts the cycles it sat out in
# closed form. Each gated by name: that loop against the checked
# lock-step loop (Config.Check) on counters and memory images over the
# golden corpus, the families and the example kernels, a two-entry TST
# and DWS included, and — with a recorder attached to the served loop,
# under every scheduler policy — on event streams in lock-step order,
# histograms and time series; a recorded run taking exactly the
# unrecorded run's loop iterations, counters and memory; and every exit
# — budget kills at each phase of a run and beside a sleeping block, the
# store-footprint kill among them, a late deadlock, a cancellation
# inside a run, the cycle limit — settling to lock-step's counters; and
# a run crossing into the next icache line only when the block's L0I
# holds it filled by the cycle the run reaches it, through a line hop
# too, with lock-step's counters and stores.
gate -race -count=1 -run '^TestExcusedStepsAreNoOps$' -timeout 30m ./internal/gpu
gate -race -count=1 -run '^TestBudgetKillBitIdentical$' ./internal/gpu
for t in TestRecordedRunIsTheServedRun TestKillSettlesSleepersAndRuns TestDeadlockSettlesSleepers TestCancelAndCycleLimitInsideARun TestRunCrossesResidentLines; do
    gate -race -count=1 -run "^$t\$" ./internal/sm
done

echo "== data path gate =="
# Loads return one writeback event per cache line, in a defined order,
# over a paged base image; each gated by name. A writeback that lands
# after its warp exited and the slot was refilled reaches the dead warp,
# never the new occupant; same-cycle writebacks apply by issue order,
# then lane, so the later of two loads into one register wins. Pages and
# views agree with a plain word map on loads, counts, fingerprints and
# absorb conflicts, bounded views spilling past their page allowance
# included; many views load one shared base at once (under the race
# detector: loading never writes the base); a budgeted submission that
# stores one word per page retains at most its SMs' page allowances plus
# a word map's cost per word; and the content addresses of every
# generator family are pinned, so a layout change cannot orphan a disk
# cache.
for t in TestWritebackAfterSlotRecycled TestSameCycleWritebacksApplyInIssueOrder; do
    gate -count=1 -run "^$t\$" ./internal/sm
done
gate -count=1 -run '^(TestPagedMemoryMatchesWordMap|TestBoundedViewSpillsForGood)$' ./internal/mem
gate -race -count=2 -run '^TestViewsShareOneBaseConcurrently$' ./internal/mem
gate -count=1 -run '^TestScatterStoresStayBounded$' ./internal/server
gate -count=1 -run '^TestKeyOfUnchangedByLayout$' ./internal/simcache

echo "== counters gate =="
# Each counter says one fact, and Merge folds every one of them: a
# Counters field added without its stats.CounterFields row fails the
# first two gates, the second also when a row is out of declaration
# order or names another field. A straight line issues one instruction
# a cycle, and a load's consumer issues exactly L1MissLatency cycles
# after it, exact at three latencies. The Fig. 9 kernel takes exactly
# 2L+14 cycles in the baseline and L+12+2*max(S,1) under SI, with three
# selects, at three latencies and three switch latencies. Instruction
# fetch: a straight line pays each icache line once, n+2 + lines*P
# cycles, and its twin split into groups by line hops (a BRA over a NOP
# gap to the next line) takes its closed form with one warp and with two
# warps on one block, at six penalty pairs, under every policy, both
# worker counts, Check on and off. The run loop's own work (gpu.Result's
# Engine block) equals testdata/engine_counts.txt exactly, and is the
# same for workers 1 and 4, Check on and off, with and without a
# recorder. A cache entry written with the counters that restated others
# still decodes. Each gated by name so a rename fails.
gate -count=1 -run '^TestMergeFoldsEveryField$' ./internal/stats
gate -count=1 -run '^TestCounterFieldsListEveryField$' ./internal/stats
for t in TestStraightLineIssuesEveryCycle TestLoadToUseStallTiming \
    TestBaselineSerializesDivergentStalls TestSubwarpInterleavingOverlapsStalls; do
    gate -count=1 -run "^$t\$" ./internal/sm
done
for t in TestStraightLineIcacheLaw TestLineHopIcacheLaw \
    TestEngineCountsMatchPin TestEngineCountsAreARunProperty; do
    gate -count=1 -run "^$t\$" ./internal/gpu
done
gate -count=1 -run '^TestDiskDecodesEntriesWithRemovedCounters$' ./internal/simcache

echo "== response encoding gate =="
# A result is written by one hand-appended encoder, JobResult.AppendJSON.
# Each gated by name: its bytes equal encoding/json's compact output for
# real results of every key-corpus stratum, both sample submissions,
# the front's error entries and a batch body; FuzzJobResultJSON's seed
# corpus holds the float and string edges (-0, subnormals, 1e-7, 1e21,
# <>&, U+2028, invalid UTF-8); and the coordinator's decode and
# re-encode of a worker's result is the identity, byte for byte against
# a lone node, simulated and cached (under the race detector).
gate -count=1 -run '^(TestJobResultJSONMatchesMarshal|FuzzJobResultJSON)$' ./internal/server
gate -race -count=1 -run '^TestClusterResponseBytesMatchNode$' ./internal/cluster

echo "== experiments plan gate =="
# One plan runs the report: each distinct (kernel, config) the
# experiments declare is simulated once, over one kernel per profile.
# Each gated by name: equal declarations share one slot and one run;
# every Quick report matches its digest in
# internal/experiments/testdata, and each experiment run alone renders
# what it renders inside the whole plan (under the race detector); the
# full report equals results/full_report.txt byte for byte, and so does
# each experiment alone (full-size tests skip under -race).
gate -race -count=1 -run '^TestPlanRunsEachSimulationOnce$' ./internal/experiments
gate -race -count=1 -run '^TestReportsMatchPins$/^quick$' ./internal/experiments
gate -count=1 -run '^TestReportsMatchPins$/^full$' ./internal/experiments

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
# The memory tier's admission policy, by name under the race detector:
# one-hit scans must not push out hot results, a seeded Zipf(1.0)
# replay must beat a reference LRU, the Cache contract must hold at
# every capacity 1-33, a hit must not allocate, and a huge capacity
# must not allocate a huge sketch.
gate -race -count=1 \
    -run '^TestAdmission(ScanResistance|ZipfBeatsLRU|Properties|HitAllocatesNothing|HugeCapacityIsSmall)$' \
    ./internal/simcache
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
# to local serving. A batch is its requests, gated by name: a lagging
# peer's batch backlog spills to the idle peer by the bounded-load rule
# with every key simulated once, an entry that never got a window slot
# before the client left is a structured 408, and a client's own
# deadline never feeds a healthy peer's breaker or falls back locally. The parity table and the Runner conformance test
# are named so that renaming either fails the gate: every error class
# must read the same through the coordinator as from a single node
# (status, Retry-After, body, batch entry), and the node, the peer
# client and the coordinator must honour one Run contract. The daemon
# test then drives a real coordinator + 2-worker topology end to end —
# affinity hits through the coordinator, SIGKILL one worker, identical
# answers after — and the SIGTERM teardown requires a clean drain.
# The ring is gated by name too: over the benchmark's loopback ports and
# seeded adjacent and random port triples, every worker owns between a
# fifth and a half of the ring.
go test -race -count=1 ./internal/cluster
gate -count=1 -run '^TestRingBalance$' ./internal/cluster
gate -race -count=1 -run 'TestClusterErrorParity' ./internal/cluster
gate -race -count=1 -run 'TestRunnerConformance' ./internal/cluster
# Placement is by content key for submissions too: one program under
# two names reaches one peer and the second is that peer's cache hit.
gate -race -count=1 -run '^TestClusterSubmissionPlacedByContent$' ./internal/cluster
# Bounded load spills only what a busy ring home cannot answer from its
# cache: a home held past the bound still serves its hits, to single
# requests and batch entries alike, declines its misses with a
# not_cached 504, and a decline never feeds its breaker.
gate -race -count=1 -run '^TestClusterHitsStayHomeUnderLoad$' ./internal/cluster
gate -race -count=1 -run '^TestClusterBatchSpillsFromLaggingPeer$' ./internal/cluster
gate -race -count=1 -run '^TestClusterCancelIsNotPeerFailure$' ./internal/cluster
gate -race -count=1 -run '^TestBatchWindowStampsAbandoned$' ./internal/server
gate -count=1 -run 'TestDaemonCluster' ./cmd/sisimd

echo "== key path gate =="
# One spec-to-key path: sisim, the node and the coordinator key a
# catalogued job through JobSpec.Key, whose process-wide memo holds keys
# only. Each gated by name. Remembered keys equal a fresh build's, on
# repeats, from eight goroutines, past the memo bound and against the
# corpus pinned from the keys written before the memo (under the race
# detector, twice); a key remembered after its result was evicted
# builds and runs a fresh kernel, twins included, and strands no joiner;
# a cache hit allocates what a hit needs, never a build; the key sisim
# -cache-dir prints is the daemon's, and sisim refuses what the daemon
# refuses with the daemon's message; and registering every metric
# through the five registry constructors leaves each family's name,
# type and help text as pinned.
gate -race -count=2 -run '^TestKeyMatchesFreshBuild$|^TestKeyMemoHitCacheMiss$' ./internal/server
gate -count=1 -run '^TestCacheHitBuildsNoKernel$' ./internal/server
gate -count=1 -run '^TestCLIKeyMatchesDaemon$|^TestCLIErrorPaths$' ./cmd/sisim
# One submission builder: the daemon keys of every sample submission
# under five body shapes match the pins made before SubmitSpec.Build
# replaced the CLI's copy. sisim's -chart and -disasm print what the
# retired traceview printed, byte for byte, and a -trace-warps list is
# sorted, deduplicated and bounded by the kernel's warps.
gate -count=1 -run '^TestSubmitKeysMatchPins$' ./internal/server
for t in TestCLIChartAndDisasm TestParseWarpList; do
    gate -count=1 -run "^$t\$" ./cmd/sisim
done
gate -count=1 -run '^TestExpositionFamiliesUnchanged$' ./internal/cluster

echo "== isa table gate =="
# One opcode table defines the ISA's syntax: the assembler, the
# disassembler, Program.Validate, the Builder and admission's register
# check all walk it. Each check runs by name under the race detector,
# so renaming one fails the gate: every assembly source in the tree and
# every program the workload generators build round-trips through
# disassembly; Validate rejects each invalid instruction in its table;
# the disassembly of every assembly source matches its pinned digest;
# FuzzAssemble's seed corpus holds the round-trip fixed point; and the
# catalogued jobs' keys, which hash disassembly, match the pinned corpus.
for t in TestAssembleDisassembleRoundTrip TestValidateRejections \
    TestDisassemblyDigests FuzzAssemble; do
    gate -race -count=1 -run "^$t\$" ./internal/isa
done
gate -race -count=1 -run '^TestKeyMatchesFreshBuild$' ./internal/server

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
# the zero-alloc hot-loop microbenchmarks, the recorded run, the
# trace exporter and a cache hit through the HTTP front) proves the
# whole bench harness still runs; timing is not asserted here.
go test -run '^$' -bench . -benchmem -benchtime 1x . ./internal/sm ./internal/gpu ./internal/trace ./internal/server

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
