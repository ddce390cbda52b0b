package admission

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
)

// wellFormed is a small but complete submission: special registers,
// scoreboarded loads, a properly-armed divergent branch, and stores.
const wellFormed = `
.regs 16
    S2R R0, SR3          // global thread id
    SHL R1, R0, 2        // byte address
    LDG R2, [R1+0] &wr=sb0
    ISETP.LT P0, R0, 16
    BSSY B0, join
    @P0 BRA double
    IADD R3, R2, 1 &req=sb0
    BRA join
double:
    IADD R3, R2, R2 &req=sb0
join:
    BSYNC B0
    STG [R1+4096], R3
    EXIT
`

func TestValidateAcceptsWellFormed(t *testing.T) {
	p, err := ValidateSource("wellformed", wellFormed, Limits{})
	if err != nil {
		t.Fatalf("ValidateSource: %v", err)
	}
	if p.Len() == 0 {
		t.Fatal("empty program returned")
	}
}

// hostileWant maps each corpus file to the expected admission reason,
// or "" for programs admission must accept (their termination is the
// gas meter's job, pinned by FuzzAdmission and the gpu differential
// tests).
var hostileWant = map[string]string{
	"infinite_loop.asm":       "",
	"store_bomb.asm":          "",
	"twin_bsync.asm":          "",
	"mismatched_bsync.asm":    ReasonCFG,
	"unstructured_branch.asm": ReasonCFG,
	"rearmed_barrier.asm":     ReasonCFG,
	"falls_off_end.asm":       ReasonCFG,
	"oob_load.asm":            ReasonFootprint,
	"negative_offset.asm":     ReasonOperand,
	"register_overflow.asm":   ReasonRegisters,
	"scoreboard_overflow.asm": ReasonScoreboard,
	"brx.asm":                 ReasonOpcode,
	"trace_no_rtcore.asm":     ReasonOpcode,
	"zero_body.asm":           ReasonParse,
}

// CorpusDir is the hostile-submission corpus shared by this package's
// tests and fuzzer, the server's sandbox gate, and tools/check.sh.
const CorpusDir = "testdata/hostile"

func readCorpus(t testing.TB) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(CorpusDir, "*.asm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(src)
	}
	return out
}

func TestHostileCorpus(t *testing.T) {
	corpus := readCorpus(t)
	if len(corpus) != len(hostileWant) {
		t.Errorf("corpus has %d files, hostileWant lists %d — keep them in sync", len(corpus), len(hostileWant))
	}
	for name, src := range corpus {
		want, ok := hostileWant[name]
		if !ok {
			t.Errorf("%s: not listed in hostileWant", name)
			continue
		}
		_, err := ValidateSource(strings.TrimSuffix(name, ".asm"), src, Limits{})
		if want == "" {
			if err != nil {
				t.Errorf("%s: want accept, got %v", name, err)
			}
			continue
		}
		var aerr *Error
		if !errors.As(err, &aerr) {
			t.Errorf("%s: want *admission.Error, got %v", name, err)
			continue
		}
		if aerr.Reason != want {
			t.Errorf("%s: want reason %q, got %q (%v)", name, want, aerr.Reason, err)
		}
	}
}

func TestReasonsCoverAllRejects(t *testing.T) {
	have := make(map[string]bool)
	for _, r := range Reasons() {
		have[r] = true
	}
	for name, want := range hostileWant {
		if want != "" && !have[want] {
			t.Errorf("%s expects reason %q not listed in Reasons()", name, want)
		}
	}
}

func TestLimitsEnforced(t *testing.T) {
	// A program longer than MaxInstrs.
	var b strings.Builder
	b.WriteString(".regs 8\n")
	for i := 0; i < 20; i++ {
		b.WriteString("    IADD R0, R0, 1\n")
	}
	b.WriteString("    EXIT\n")
	_, err := ValidateSource("long", b.String(), Limits{MaxInstrs: 10})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Reason != ReasonLimits {
		t.Fatalf("want limits reject, got %v", err)
	}
	// Declared registers beyond the policy cap.
	_, err = ValidateSource("fat", ".regs 48\n    EXIT\n", Limits{MaxRegsPerThread: 32})
	if !errors.As(err, &aerr) || aerr.Reason != ReasonLimits {
		t.Fatalf("want limits reject, got %v", err)
	}
}

// fuzzBudget is deliberately tiny so hostile accepted inputs die fast.
var fuzzBudget = sm.Budget{MaxCycles: 20000, MaxInstrs: 40000, MaxMemBytes: 1 << 16}

// runAdmitted launches an admitted program under the fuzz budget with
// the given engine and returns the run error (nil, BudgetError,
// deadlock, ... — anything but a panic).
func runAdmitted(t testing.TB, p *isa.Program, compiled bool) (uint64, error) {
	t.Helper()
	cfg := config.Default()
	cfg.Compiled = compiled
	budget := fuzzBudget
	k := &sm.Kernel{
		Program:     p,
		NumWarps:    4,
		WarpsPerCTA: 2,
		Memory:      mem.NewMemory(),
		Budget:      &budget,
	}
	res, err := gpu.Run(cfg, k)
	var perr *gpu.PanicError
	if errors.As(err, &perr) {
		t.Fatalf("admitted program panicked the SM (engine compiled=%v): %v\n%s", compiled, perr, perr.Stack)
	}
	if res.Memory == nil {
		t.Fatalf("admitted program was refused before it ran (engine compiled=%v): %v", compiled, err)
	}
	return res.Memory.Fingerprint(), err
}

// FuzzAdmission pins the sandbox contract: any source the validator
// accepts must simulate under a tiny budget without panicking, in both
// engines, with identical outcomes (same memory fingerprint, and on
// budget kills the same BudgetError).
func FuzzAdmission(f *testing.F) {
	for _, src := range readCorpus(f) {
		f.Add(src)
	}
	f.Add(wellFormed)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ValidateSource("fuzz", src, Limits{})
		if err != nil {
			var aerr *Error
			if !errors.As(err, &aerr) {
				t.Fatalf("reject without structured reason: %v", err)
			}
			return
		}
		fpC, errC := runAdmitted(t, p, true)
		fpI, errI := runAdmitted(t, p, false)
		if fpC != fpI {
			t.Fatalf("engines disagree on memory fingerprint: compiled=%x interpreted=%x", fpC, fpI)
		}
		var bC, bI *sm.BudgetError
		if errors.As(errC, &bC) != errors.As(errI, &bI) {
			t.Fatalf("engines disagree on budget kill: compiled=%v interpreted=%v", errC, errI)
		}
		if bC != nil && *bC != *bI {
			t.Fatalf("budget kills differ: compiled=%+v interpreted=%+v", *bC, *bI)
		}
	})
}
