package isa_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"subwarpsim/internal/isa"
	"subwarpsim/internal/workload"
)

// repoRoot is the module root, relative to this package's directory.
const repoRoot = "../.."

// treeSource is one piece of assembly text checked into the repository.
type treeSource struct {
	path string // relative to the repository root
	name string // kernel name it is assembled under
	src  string
}

// treeSources returns every assembly source in the repository, sorted
// by path: the sample submissions, the admission hostile corpus, and
// the source embedded in examples/customkernel. Some of them are meant
// not to assemble.
func treeSources(t testing.TB) []treeSource {
	t.Helper()
	var paths []string
	for _, glob := range []string{"examples/submissions/*.asm", "internal/admission/testdata/hostile/*.asm"} {
		m, err := filepath.Glob(filepath.Join(repoRoot, glob))
		if err != nil || len(m) == 0 {
			t.Fatalf("no files match %s: %v", glob, err)
		}
		paths = append(paths, m...)
	}
	var out []treeSource
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(repoRoot, p)
		out = append(out, treeSource{filepath.ToSlash(rel), strings.TrimSuffix(filepath.Base(p), ".asm"), string(b)})
	}
	const custom = "examples/customkernel/main.go"
	b, err := os.ReadFile(filepath.Join(repoRoot, custom))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "const source = `")
	src, _, ok2 := strings.Cut(rest, "`")
	if !ok || !ok2 {
		t.Fatalf("%s: no `const source` literal", custom)
	}
	out = append(out, treeSource{custom, "parity", src})
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// TestDisassemblyDigests pins the disassembly of every assembly source
// in the tree that assembles. A submission's cache key hashes the
// disassembly of the assembler's output, so a moved digest is a moved
// key.
func TestDisassemblyDigests(t *testing.T) {
	const file = "testdata/disasm_digests.json"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, s := range treeSources(t) {
		p, err := isa.Assemble(s.name, s.src)
		if err != nil {
			continue
		}
		sum := sha256.Sum256([]byte(p.Disassemble()))
		got[s.path] = hex.EncodeToString(sum[:])
	}
	for path, d := range want {
		if got[path] != d {
			t.Errorf("%s: disassembly digest %q, pinned %q", path, got[path], d)
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			t.Errorf("%s assembles but has no pinned digest", path)
		}
	}
	if t.Failed() {
		doc, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("digests of this tree:\n%s", doc)
	}
}

// generatorPrograms returns every program the workload generators
// build: the Table II megakernels, the microbenchmark at every subwarp
// size, and the registered generators.
func generatorPrograms(t testing.TB) []*isa.Program {
	t.Helper()
	var progs []*isa.Program
	for _, app := range workload.Apps() {
		k, err := workload.Megakernel(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		progs = append(progs, k.Program)
	}
	for ss := 1; ss <= 32; ss *= 2 {
		k, err := workload.Microbench(workload.DefaultMicrobench(ss))
		if err != nil {
			t.Fatalf("microbench %d: %v", ss, err)
		}
		progs = append(progs, k.Program)
	}
	for _, g := range workload.Generators() {
		k, err := g.Build()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		progs = append(progs, k.Program)
	}
	return progs
}

// Round-trip property: reassembling a program's disassembly reproduces
// it exactly. Exercised on a hand-built program, every program the
// workload generators build and every assembly source in the tree.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	progs := []*isa.Program{}

	b := isa.NewBuilder("hand")
	b.S2R(0, isa.SRLaneID)
	b.Shl(1, 0, 7)
	b.Isetpi(isa.CmpLT, 0, 0, 16)
	b.Bssy(0, "sync")
	b.BraP(0, true, "then")
	b.Ldg(3, 1, 64, 1)
	b.Iadd(3, 3, 3).Req(1)
	b.Bra("sync")
	b.Label("then")
	b.Tex(4, 1, 2, 8, 2)
	b.Fadd(4, 4, 3).Req(2)
	b.Bra("sync")
	b.Label("sync")
	b.Bsync(0)
	b.Trace(5, 1, 3)
	b.Mufu(6, 5).Req(3)
	b.Stg(1, 0, 6)
	b.Yield()
	progs = append(progs, b.Exit().MustBuild())
	progs = append(progs, generatorPrograms(t)...)
	for _, s := range treeSources(t) {
		if p, err := isa.Assemble(s.name, s.src); err == nil {
			progs = append(progs, p)
		}
	}

	for _, p := range progs {
		again, err := isa.Assemble(p.Name, p.Disassemble())
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v", p.Name, err)
		}
		if again.Len() != p.Len() {
			t.Fatalf("%s: length %d != %d", p.Name, again.Len(), p.Len())
		}
		if again.RegsPerThread != p.RegsPerThread {
			t.Fatalf("%s: RegsPerThread %d != %d", p.Name, again.RegsPerThread, p.RegsPerThread)
		}
		for pc := range p.Code {
			want := p.Code[pc]
			got := again.Code[pc]
			if got != want {
				t.Fatalf("%s: pc %d: %v != %v", p.Name, pc, got, want)
			}
		}
	}
}
