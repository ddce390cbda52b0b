package gpu

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// slowKernel builds a microbenchmark long enough that cancellation
// lands mid-simulation rather than after completion.
func slowKernel(t *testing.T) *sm.Kernel {
	t.Helper()
	p := workload.DefaultMicrobench(4)
	p.Iterations *= 100
	k, err := workload.Microbench(p)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCancelMidRunReturnsPromptly cancels a long simulation and
// expects RunContext back within the stride-check latency, wrapping
// context.Canceled.
func TestCancelMidRunReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := RunContext(ctx, defaultConfig(), slowKernel(t), workers)
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the simulation get going
		cancel()

		start := time.Now()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: cancelled simulation did not return", workers)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("workers=%d: return took %v after cancel", workers, elapsed)
		}
	}
}

// TestDeadlineExceededSurfaces runs under a 1ms budget and expects a
// context.DeadlineExceeded-compatible error.
func TestDeadlineExceededSurfaces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, defaultConfig(), slowKernel(t), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPreCancelledContextRefusesToRun: an already-dead context must
// fail before simulating anything.
func TestPreCancelledContextRefusesToRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunContext(ctx, defaultConfig(), slowKernel(t), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-cancelled run took %v", elapsed)
	}
}

// TestCancelLeavesNoGoroutines: repeated cancelled runs must not
// accumulate SM worker goroutines.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		RunContext(ctx, defaultConfig(), slowKernel(t), 2)
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled runs",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestContextlessRunUnaffected: the plain entry points still complete
// and match a Background-context run bit for bit.
func TestContextlessRunUnaffected(t *testing.T) {
	k := microbench4(t).kernel
	plain, err := RunWorkers(defaultConfig(), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunContext(context.Background(), defaultConfig(), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counters != viaCtx.Counters {
		t.Error("RunContext(Background) must be bit-identical to RunWorkers")
	}
}
