package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"subwarpsim/internal/gpu"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/workload"
)

var updateKeys = flag.Bool("update-keys", false,
	"rewrite testdata/key_corpus.json from Key() and testdata/submit_key_corpus.json from SubmitKernel")

const (
	keyCorpusPath       = "testdata/key_corpus.json"
	submitKeyCorpusPath = "testdata/submit_key_corpus.json"
)

// keyCorpusSpecs crosses every catalogued workload with the knob
// settings the paper sweeps: baseline, Both with N>=0.5, DWS, the GTO
// scheduler, a miss latency, a warp-slot count and a TST bound.
func keyCorpusSpecs() []JobSpec {
	var bases []JobSpec
	for _, a := range workload.AppNames() {
		bases = append(bases, JobSpec{App: a})
	}
	for m := 1; m <= 32; m *= 2 {
		bases = append(bases, JobSpec{Microbench: m})
	}
	for _, g := range []string{"gemm", "bfs", "texture"} {
		bases = append(bases, JobSpec{Workload: g})
	}
	variants := []func(*JobSpec){
		func(*JobSpec) {},
		func(j *JobSpec) { j.SI, j.Yield, j.Trigger = true, true, "half" },
		func(j *JobSpec) { j.DWS = true },
		func(j *JobSpec) { j.Policy = "gto" },
		func(j *JobSpec) { j.LatencyCycles = 900 },
		func(j *JobSpec) { j.WarpSlots = 4 },
		func(j *JobSpec) { j.SI, j.MaxSubwarps = true, 4 },
	}
	var specs []JobSpec
	for _, b := range bases {
		for _, v := range variants {
			spec := b
			v(&spec)
			specs = append(specs, spec)
		}
	}
	return specs
}

// keyCorpusEntry is one pinned content address.
type keyCorpusEntry struct {
	Spec JobSpec `json:"spec"`
	Key  string  `json:"key"`
}

// freshKey is the key with nothing remembered: a new kernel, hashed.
func freshKey(t *testing.T, spec JobSpec) simcache.Key {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	k, err := spec.BuildKernel()
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	return simcache.KeyOf(cfg, k, spec.WorkloadID())
}

// resetSpecKeys empties the process-wide memo so the next Key of every
// spec is a miss.
func resetSpecKeys() {
	specKeys.Lock()
	specKeys.m = make(map[JobSpec]simcache.Key)
	specKeys.Unlock()
}

func specKeysLen() int {
	specKeys.Lock()
	defer specKeys.Unlock()
	return len(specKeys.m)
}

// TestKeyMatchesFreshBuild: a remembered key is the key a fresh build
// hashes to, on the first call and every repeat, from concurrent
// callers, past the memo's bound, and bit-identical to the pinned
// corpus; the timeout is not part of it, and an invalid spec's error is
// never remembered.
func TestKeyMatchesFreshBuild(t *testing.T) {
	specs := keyCorpusSpecs()
	want := make(map[JobSpec]simcache.Key, len(specs))
	for _, spec := range specs {
		want[spec] = freshKey(t, spec)
	}

	t.Run("first call and repeat", func(t *testing.T) {
		resetSpecKeys()
		for round := 0; round < 2; round++ {
			for _, spec := range specs {
				got, err := spec.Key()
				if err != nil || got != want[spec] {
					t.Fatalf("round %d: Key(%+v) = %s, %v; want %s", round, spec, got, err, want[spec])
				}
			}
		}
		if n := specKeysLen(); n != len(specs) {
			t.Errorf("memo holds %d keys after %d distinct specs", n, len(specs))
		}
	})

	t.Run("pinned corpus", func(t *testing.T) {
		if *updateKeys {
			var corpus []keyCorpusEntry
			for _, spec := range specs {
				key, err := spec.Key()
				if err != nil {
					t.Fatal(err)
				}
				corpus = append(corpus, keyCorpusEntry{spec, key.String()})
			}
			raw, err := json.MarshalIndent(corpus, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(keyCorpusPath, append(raw, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(keyCorpusPath)
		if err != nil {
			t.Fatal(err)
		}
		var corpus []keyCorpusEntry
		if err := json.Unmarshal(raw, &corpus); err != nil {
			t.Fatal(err)
		}
		if len(corpus) != len(specs) {
			t.Fatalf("corpus has %d keys, want %d", len(corpus), len(specs))
		}
		for _, e := range corpus {
			got, err := e.Spec.Key()
			if err != nil || got.String() != e.Key {
				t.Errorf("Key(%+v) = %s, %v; pinned %s (rerun with -update-keys only when keys are meant to change)",
					e.Spec, got, err, e.Key)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		resetSpecKeys()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range specs {
					spec := specs[(i*7+g*13)%len(specs)]
					if got, err := spec.Key(); err != nil || got != want[spec] {
						errs <- fmt.Errorf("goroutine %d: Key(%+v) = %s, %v; want %s", g, spec, got, err, want[spec])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})

	t.Run("timeout is not keyed", func(t *testing.T) {
		spec := JobSpec{Microbench: 4, SI: true}
		plain, err := spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		n := specKeysLen()
		spec.TimeoutMS = 5000
		if got, err := spec.Key(); err != nil || got != plain {
			t.Errorf("TimeoutMS changed the key: %s, %v; want %s", got, err, plain)
		}
		if specKeysLen() != n {
			t.Error("a timeout gave the same spec a second memo entry")
		}
	})

	t.Run("invalid specs", func(t *testing.T) {
		var invalid []JobSpec
		for m := 1; m <= 32; m++ {
			if spec := (JobSpec{Microbench: m}); spec.Validate() != nil {
				invalid = append(invalid, spec)
			}
		}
		invalid = append(invalid,
			JobSpec{App: "NotAnApp"},
			JobSpec{Microbench: 4, SI: true, DWS: true},
			JobSpec{Microbench: 4, TimeoutMS: -1}, // its valid twin is remembered
			JobSpec{Microbench: 4, Policy: "fifo"},
		)
		if len(invalid) < 26+4 {
			t.Fatalf("only %d invalid specs", len(invalid))
		}
		n := specKeysLen()
		for _, spec := range invalid {
			for round := 0; round < 2; round++ {
				_, err := spec.Key()
				if err == nil || err.Error() != spec.Validate().Error() {
					t.Errorf("round %d: Key(%+v) error %v, want %v", round, spec, err, spec.Validate())
				}
			}
		}
		if specKeysLen() != n {
			t.Errorf("invalid specs were remembered: memo %d -> %d", n, specKeysLen())
		}
	})

	t.Run("past the bound", func(t *testing.T) {
		// Fill the memo to one short of its bound with wrong keys for
		// specs nobody asks for, then ask for real ones: the first fills
		// the memo, the second resets it, and every answer is right —
		// the wrong keys included, which only a reset forgets.
		resetSpecKeys()
		var bogus simcache.Key
		bogus[0] = 0xff
		specKeys.Lock()
		for i := 0; len(specKeys.m) < specKeysMax-1; i++ {
			specKeys.m[JobSpec{Microbench: 4, LatencyCycles: 10_000 + i}] = bogus
		}
		specKeys.Unlock()
		for _, spec := range specs[:3] {
			if got, err := spec.Key(); err != nil || got != want[spec] {
				t.Fatalf("Key(%+v) = %s, %v; want %s", spec, got, err, want[spec])
			}
		}
		if n := specKeysLen(); n != 2 {
			t.Errorf("memo holds %d keys after the reset, want 2", n)
		}
		filler := JobSpec{Microbench: 4, LatencyCycles: 10_000}
		if got, err := filler.Key(); err != nil || got != freshKey(t, filler) {
			t.Errorf("Key(%+v) = %s, %v after the reset; want its fresh key", filler, got, err)
		}
	})
}

// submitKeyCorpusSpecs crosses every sample submission with the
// shapes a /v1/submit body can take: defaults, Both, a larger launch, a
// budget request inside the server's maximum and one above it (which
// clamps to the maximum). Assembly is left empty; the entry's Source
// names the file that supplies it.
func submitKeyCorpusSpecs(t *testing.T) []submitKeyEntry {
	t.Helper()
	sources, err := filepath.Glob("../../examples/submissions/*.asm")
	if err != nil || len(sources) < 2 {
		t.Fatalf("want at least two sample submissions, got %v (%v)", sources, err)
	}
	variants := []SubmitSpec{
		{},
		{SI: true, Yield: true},
		{Warps: 16},
		{MaxCycles: 1_000_000, MaxInstrs: 4_000_000, MemFootprintBytes: 1 << 20},
		{MaxCycles: 50_000_000, MaxInstrs: 200_000_000, MemFootprintBytes: 128 << 20},
	}
	var entries []submitKeyEntry
	for _, src := range sources {
		for _, v := range variants {
			v.Name = filepath.Base(src)
			entries = append(entries, submitKeyEntry{Source: filepath.Base(src), Spec: v})
		}
	}
	return entries
}

// submitKeyEntry is one pinned submission content address.
type submitKeyEntry struct {
	Source string     `json:"source"`
	Spec   SubmitSpec `json:"spec"`
	Key    string     `json:"key"`
}

// TestSubmitKeysMatchPins: the key the daemon answers a sample
// submission under is the pinned one, for every shape in the corpus.
func TestSubmitKeysMatchPins(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	daemonKey := func(e submitKeyEntry) string {
		src, err := os.ReadFile(filepath.Join("../../examples/submissions", e.Source))
		if err != nil {
			t.Fatal(err)
		}
		sp := e.Spec
		sp.Assembly = string(src)
		res, err := s.SubmitKernel(context.Background(), sp)
		if err != nil {
			t.Fatalf("%s %+v: %v", e.Source, e.Spec, err)
		}
		return res.Key
	}
	if *updateKeys {
		corpus := submitKeyCorpusSpecs(t)
		for i := range corpus {
			corpus[i].Key = daemonKey(corpus[i])
		}
		raw, err := json.MarshalIndent(corpus, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(submitKeyCorpusPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(submitKeyCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []submitKeyEntry
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatal(err)
	}
	if want := len(submitKeyCorpusSpecs(t)); len(corpus) != want {
		t.Fatalf("corpus has %d keys, want %d", len(corpus), want)
	}
	for _, e := range corpus {
		if got := daemonKey(e); got != e.Key {
			t.Errorf("%s %+v: key %s; pinned %s (rerun with -update-keys only when keys are meant to change)",
				e.Source, e.Spec, got, e.Key)
		}
	}
}

// TestCacheHitBuildsNoKernel: once a spec's result is cached, Submit
// answers it from the remembered key, so a hit allocates a small
// constant that a megakernel build cannot fit in.
func TestCacheHitBuildsNoKernel(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{App: "BFV1"}
	ctx := context.Background()
	if _, err := s.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	const bound = 32
	build := testing.AllocsPerRun(3, func() {
		if _, err := spec.BuildKernel(); err != nil {
			t.Fatal(err)
		}
	})
	if build <= bound {
		t.Fatalf("a megakernel build allocates %.0f times, within the %d bound: the bound cannot tell a build from a hit", build, bound)
	}
	hit := testing.AllocsPerRun(20, func() {
		if res, err := s.Submit(ctx, spec); err != nil || !res.Cached {
			t.Fatalf("warmed Submit: cached=%v, %v", res.Cached, err)
		}
	})
	if hit > bound {
		t.Errorf("a cache hit allocates %.0f times, over the %d bound (a build is %.0f)", hit, bound, build)
	}
}

// TestKeyMemoHitCacheMiss: a spec whose key is remembered but whose
// result was evicted builds its kernel after the cache misses and runs
// it. With a one-entry cache and two alternating specs every request
// after the first two is such a miss, twins included: each answer equals
// a fresh simulation and no joiner is left waiting.
func TestKeyMemoHitCacheMiss(t *testing.T) {
	specs := []JobSpec{{Microbench: 4, SI: true}, {Microbench: 8}}
	ref := make([]stats.Counters, len(specs))
	for i, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		k, err := spec.BuildKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := gpu.RunContext(context.Background(), cfg, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res.Counters
	}
	resetSpecKeys()
	s := newTestServer(t, Options{Workers: 2, Cache: simcache.NewMemory(1)})
	ctx := context.Background()
	check := func(i int) error {
		res, err := s.Submit(ctx, specs[i])
		switch {
		case err != nil:
			return fmt.Errorf("%+v: %v", specs[i], err)
		case res.Counters != ref[i]:
			return fmt.Errorf("%+v: counters %+v, want a fresh run's %+v", specs[i], res.Counters, ref[i])
		}
		return nil
	}
	for round := 0; round < 2; round++ {
		for i := range specs {
			if err := check(i); err != nil {
				t.Fatal(err)
			}
			if _, k, _ := specs[i].key(); k != nil {
				t.Fatalf("%+v: key not remembered after a Submit", specs[i])
			}
		}
	}

	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for i := range specs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < 2; r++ {
					if err := check(i); err != nil {
						errs <- err
						return
					}
				}
			}(i)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("a twin is still waiting: a joiner was stranded")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
