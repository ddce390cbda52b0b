package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"subwarpsim/internal/config"
	"subwarpsim/internal/server"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// request is one generated operation. Exactly one of lib, job and sub
// is set: a library call, a POST /v1/jobs body or a POST /v1/submit
// body. Serving payloads are marshalled at generation time so the
// measured interval holds no harness-side encoding.
type request struct {
	label   string // stratum the op was drawn from, e.g. "app/BFV1"
	kernel  string // what the kernel is, when several strata share one; "" means label
	lib     *libOp
	job     *server.JobSpec
	sub     *server.SubmitSpec
	payload []byte
}

// kernelID names the request's kernel: requests with one kernelID
// simulate the same program on the same inputs.
func (r request) kernelID() string {
	if r.kernel != "" {
		return r.kernel
	}
	return r.label
}

func (r request) path() string {
	if r.sub != nil {
		return "/v1/submit"
	}
	return "/v1/jobs"
}

// libOp is one library operation: build a fresh kernel, simulate it on
// one worker, and (traced-run only) record and export the cycle trace.
type libOp struct {
	build  func() (*sm.Kernel, error)
	cfg    config.Config
	record bool
	app    *workload.AppProfile // set for megakernels, for the scene probes
}

// generator yields a workload's operations. prime is work done during
// set-up so that caches hold what the workload expects; warm is the
// discarded warm-up pass; pass(i) is the i-th measured pass and is
// called with i = 0, 1, 2, ... in order. Every pass of one workload is
// the same multiset of strata, so a run that fits more passes measures
// more of the same work, not different work.
type generator interface {
	prime() []request
	warm() []request
	pass(i int) []request
}

// The ten Table II traces, the three generator families and the six
// microbenchmark sizes: nineteen strata a served spec is drawn from.
// Hard-coded so that a registry change shows as a failed run, not as a
// silently different traffic mix.
var (
	appNames    = []string{"AV1", "AV2", "BFV1", "BFV2", "Coll1", "Coll2", "Ctrl", "DDGI", "MC", "MW"}
	familyNames = []string{"bfs", "gemm", "texture"}
	microSizes  = []int{1, 2, 4, 8, 16, 32}
)

func jobKinds() []server.JobSpec {
	var kinds []server.JobSpec
	for _, a := range appNames {
		kinds = append(kinds, server.JobSpec{App: a})
	}
	for _, f := range familyNames {
		kinds = append(kinds, server.JobSpec{Workload: f})
	}
	for _, m := range microSizes {
		kinds = append(kinds, server.JobSpec{Microbench: m})
	}
	return kinds
}

// specGen draws distinct job specs. The n-th spec's stratum — its
// workload, its SI mode (baseline, SOS, Both) and its trigger — is a
// function of n alone, so any run of consecutive specs costs the same
// to simulate on every seed. The seed picks what makes each spec its
// own cache key without changing what it costs: the scheduler policy
// and the L1 miss latency in [300, 900].
type specGen struct {
	rng   *rand.Rand
	kinds []server.JobSpec
	seen  map[server.JobSpec]bool
	n     int
}

func newSpecGen(seed int64, kinds []server.JobSpec) *specGen {
	return &specGen{rng: rand.New(rand.NewSource(seed)), kinds: kinds, seen: map[server.JobSpec]bool{}}
}

func (g *specGen) next() request {
	for {
		s := g.kinds[g.n%len(g.kinds)]
		round := g.n / len(g.kinds)
		if mode := round % 3; mode > 0 {
			s.SI = true
			s.Yield = mode == 2
			s.Trigger = []string{"half", "any", "all"}[round/3%3]
		}
		s.Policy = []string{"lrr", "gto", "wasp"}[g.rng.Intn(3)]
		s.LatencyCycles = 300 + g.rng.Intn(601)
		if g.seen[s] {
			continue
		}
		g.seen[s] = true
		g.n++
		return jobRequest(s)
	}
}

func (g *specGen) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func jobRequest(s server.JobSpec) request {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings, ints and bools always marshals
	}
	return request{label: s.WorkloadID(), job: &s, payload: raw}
}

// shuffled returns a seeded permutation of reqs.
func shuffled(rng *rand.Rand, reqs []request) []request {
	out := append([]request(nil), reqs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// passRNG derives the generator for pass i of a seed, so pass i is the
// same whatever ran before it.
func passRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// fixedGen replays one fixed list of operations in a fresh seeded
// order every pass (the three library workloads).
type fixedGen struct {
	seed    int64
	ops     []request
	warmOps []request
}

func (g fixedGen) prime() []request     { return nil }
func (g fixedGen) warm() []request      { return g.warmOps }
func (g fixedGen) pass(i int) []request { return shuffled(passRNG(g.seed, i), g.ops) }

// coldGen never repeats a spec: every pass is passLen fresh draws.
type coldGen struct {
	gen     *specGen
	passLen int
}

func (g coldGen) prime() []request   { return nil }
func (g coldGen) warm() []request    { return g.gen.take(g.passLen) }
func (g coldGen) pass(int) []request { return g.gen.take(g.passLen) }

// hotGen simulates a fixed resident set during set-up and then replays
// it, each pass a seeded permutation of the whole set.
type hotGen struct {
	seed  int64
	specs []request
}

func (g hotGen) prime() []request     { return g.specs }
func (g hotGen) warm() []request      { return g.specs }
func (g hotGen) pass(i int) []request { return shuffled(passRNG(g.seed, i), g.specs) }

// zipfGen draws each request's spec by Zipf(1.0) popularity. Rank r is
// always stratum r mod 19, so which workloads are popular does not
// depend on the seed; set-up primes the head ranks the cluster's
// aggregate cache tier can hold.
type zipfGen struct {
	seed    int64
	specs   []request
	head    int
	passLen int
	z       zipf
}

func (g zipfGen) prime() []request { return g.specs[:g.head] }

// warm is one pass of draws, so that the measured window starts with
// the LRUs in the order the traffic gives them, not the order of
// priming.
func (g zipfGen) warm() []request { return g.pass(-1) }
func (g zipfGen) pass(i int) []request {
	rng := passRNG(g.seed, i)
	out := make([]request, g.passLen)
	for k := range out {
		out[k] = g.specs[g.z.rank(rng.Float64())]
	}
	return out
}

// submitGen writes distinct assembly kernels in the shape of
// examples/submissions: saxpy (two loads, three adds, a store) and
// divergent_reduce (a load and a half-warp branch diamond under
// BSSY/BSYNC), unrolled to a target length inside a counted loop. The
// strata — template × unrolled length, with the trip count tied to the
// length — are the same every pass; the seed picks the immediates.
type submitGen struct {
	rng     *rand.Rand
	seen    map[string]bool
	lengths []int
}

// Submissions state their gas budget, so the output check can rebuild
// the identical kernel without knowing the server's defaults.
const (
	submitMaxCycles = 2_000_000
	submitMaxInstrs = 8_000_000
	submitMemBytes  = 8 << 20
	submitWarps     = 8

	submitWarpsPerCTA = 2
)

func newSubmitGen(seed int64, lengths []int) *submitGen {
	return &submitGen{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}, lengths: lengths}
}

func (g *submitGen) prime() []request   { return nil }
func (g *submitGen) pass(int) []request { return g.take() }

// warm is four passes: a submission costs a few milliseconds, and a
// shorter warm-up would leave set-up time to the jitter of starting a
// process.
func (g *submitGen) warm() []request {
	var out []request
	for i := 0; i < 4; i++ {
		out = append(out, g.take()...)
	}
	return out
}

// take writes one pass: two kernels of each template at each length.
func (g *submitGen) take() []request {
	var out []request
	for _, tmpl := range []string{"saxpy", "divergent"} {
		for _, n := range g.lengths {
			out = append(out, g.one(tmpl, n), g.one(tmpl, n))
		}
	}
	return shuffled(g.rng, out)
}

func (g *submitGen) one(tmpl string, length int) request {
	trips := 1
	if length <= 200 {
		trips = 2
	}
	for {
		src := submitSource(g.rng, tmpl, length, trips)
		if g.seen[src] {
			continue
		}
		g.seen[src] = true
		sp := server.SubmitSpec{
			Name:              fmt.Sprintf("%s-%d", tmpl, length),
			Assembly:          src,
			Warps:             submitWarps,
			WarpsPerCTA:       submitWarpsPerCTA,
			MaxCycles:         submitMaxCycles,
			MaxInstrs:         submitMaxInstrs,
			MemFootprintBytes: submitMemBytes,
			SI:                tmpl == "divergent",
			Yield:             tmpl == "divergent",
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			panic(err)
		}
		return request{label: sp.Name, sub: &sp, payload: raw}
	}
}

// submitSource emits one kernel of about length instructions. Every
// block works on its own 4 KiB-strided slice, all inside the declared
// footprint, so admission's operand check passes.
func submitSource(rng *rand.Rand, tmpl string, length, trips int) string {
	var b strings.Builder
	b.WriteString(".regs 10\n")
	b.WriteString("    S2R R0, SR0\n    S2R R1, SR3\n    SHL R2, R1, 2\n    MOVI R6, 0\n")
	b.WriteString("    BSSY B1, done\nloop:\n")
	const prologue, epilogue = 5, 6
	perBlock := 6
	if tmpl == "divergent" {
		perBlock = 9
	}
	blocks := (length - prologue - epilogue) / perBlock
	if blocks < 1 {
		blocks = 1
	}
	for i := 0; i < blocks; i++ {
		x := i * 8192
		y := x + 4096
		imm := 1 + rng.Intn(1<<20)
		if tmpl == "saxpy" {
			fmt.Fprintf(&b, "    LDG R3, [R2+%d] &wr=sb0\n", x)
			fmt.Fprintf(&b, "    LDG R4, [R2+%d] &wr=sb1\n", y)
			b.WriteString("    IADD R5, R3, R3 &req=sb0\n")
			fmt.Fprintf(&b, "    IADD R5, R5, %d\n", imm)
			b.WriteString("    IADD R5, R5, R4 &req=sb1\n")
			fmt.Fprintf(&b, "    STG [R2+%d], R5\n", y)
			continue
		}
		fmt.Fprintf(&b, "    LDG R3, [R2+%d] &wr=sb0\n", x)
		fmt.Fprintf(&b, "    ISETP.LT P0, R0, %d\n", 1+rng.Intn(31))
		fmt.Fprintf(&b, "    BSSY B0, join%d\n", i)
		fmt.Fprintf(&b, "    @P0 BRA dbl%d\n", i)
		fmt.Fprintf(&b, "    IADD R4, R3, %d &req=sb0\n", imm)
		fmt.Fprintf(&b, "    BRA join%d\n", i)
		fmt.Fprintf(&b, "dbl%d:\n    IADD R4, R3, R3 &req=sb0\n", i)
		fmt.Fprintf(&b, "join%d:\n    BSYNC B0\n", i)
		fmt.Fprintf(&b, "    STG [R2+%d], R4\n", y)
	}
	b.WriteString("    IADD R6, R6, 1\n")
	fmt.Fprintf(&b, "    ISETP.LT P1, R6, %d\n", trips)
	b.WriteString("    @P1 BRA loop\ndone:\n    BSYNC B1\n")
	b.WriteString("    STG [R2+0], R6\n    EXIT\n")
	return b.String()
}
