package gpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"subwarpsim/internal/faults"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// TestSMPanicIsRecovered: an injected panic inside an SM goroutine
// must surface as a *PanicError instead of killing the process, on
// both the sequential and the parallel path.
func TestSMPanicIsRecovered(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := defaultConfig()
		cfg.Faults = faults.New(1, faults.Rule{Site: faults.SiteSMRun, Kind: faults.KindPanic, N: 1})
		k, err := workload.Microbench(workload.DefaultMicrobench(4))
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunWorkers(cfg, k, workers)
		if err == nil {
			t.Fatalf("workers=%d: injected panic produced no error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value == nil || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error lacks value/stack: %+v", workers, pe)
		}
		if pv, ok := pe.Value.(*faults.PanicValue); !ok || pv.Site != faults.SiteSMRun {
			t.Errorf("workers=%d: panic value = %#v, want injected PanicValue", workers, pe.Value)
		}
	}
}

// TestSMInjectedErrorSurfaces: an error rule at the SM site fails the
// run with an error wrapping faults.ErrInjected.
func TestSMInjectedErrorSurfaces(t *testing.T) {
	cfg := defaultConfig()
	cfg.Faults = faults.New(1, faults.Rule{Site: faults.SiteSMRun, Kind: faults.KindError, N: 1})
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(cfg, k)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want wrapped faults.ErrInjected", err)
	}
}

// TestSMLatencyInjectionIsResultTransparent: injected wall-clock
// latency must not change simulated counters — the determinism
// contract survives slow backends.
func TestSMLatencyInjectionIsResultTransparent(t *testing.T) {
	k := microbench4(t).kernel
	clean, err := RunWorkers(defaultConfig(), k, 2)
	if err != nil {
		t.Fatal(err)
	}

	cfg := defaultConfig()
	cfg.Faults = faults.New(1, faults.Rule{
		Site: faults.SiteSMRun, Kind: faults.KindLatency, Delay: time.Millisecond})
	slow, err := RunWorkers(cfg, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Counters != clean.Counters {
		t.Errorf("latency injection changed counters:\n  clean %+v\n  slow  %+v",
			clean.Counters, slow.Counters)
	}
	if len(cfg.Faults.Events()) != cfg.NumSMs {
		t.Errorf("latency fired %d times, want once per SM (%d)",
			len(cfg.Faults.Events()), cfg.NumSMs)
	}
}

// TestFallOffEndDiagnostic: isa.Program.Validate accepts a predicated
// BRA as the last instruction, so not-taken lanes can run off the end
// of the program (the shape internal/admission rejects statically).
// Both regimes must die at the SM's single fetch point with the named
// diagnostic — program, PC, length — wrapped in a *PanicError, never
// with a bare index-out-of-range from whichever table was read first.
func TestFallOffEndDiagnostic(t *testing.T) {
	const want = `isa: PC 2 out of range for "falloff" (2 instrs)`
	for _, compiled := range []bool{true, false} {
		b := isa.NewBuilder("falloff").SetRegsPerThread(8)
		b.Label("top").Movi(1, 0).BraP(0, false, "top") // P0 is false: nobody branches
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultConfig()
		cfg.Compiled = compiled
		k := &sm.Kernel{Program: prog, NumWarps: 2, WarpsPerCTA: 1, Memory: mem.NewMemory()}
		_, err = RunContext(context.Background(), cfg, k, 1)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("compiled=%v: err = %v, want *PanicError", compiled, err)
		}
		if msg, _ := pe.Value.(string); msg != want {
			t.Errorf("compiled=%v: panic value = %v, want %q", compiled, pe.Value, want)
		}
	}
}
