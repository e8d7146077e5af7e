//go:build faultinject

// The fault-injection suite: each test arms one fault class against the
// production sweep runner and asserts the crash-safety contract — forced
// panics isolate to their point with full coordinates, stalls and forced
// kernel/index degradations change nothing about the results. Run via
// `make test-fault` (normal and -race legs).
package faultinject_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"manhattanflood/internal/experiments"
	"manhattanflood/internal/faultinject"
	"manhattanflood/internal/kernel"
)

func spec() experiments.SweepSpec {
	return experiments.SweepSpec{Param: "r", Values: []float64{3, 4, 5}, N: 400, R: 5, V: 0.3,
		Trials: 3, MaxSteps: 20000, Seed: 11, Source: "center"}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// clean runs the sweep with every hook disarmed.
func clean(t *testing.T, workers int) []byte {
	t.Helper()
	faultinject.Reset()
	res, err := experiments.RunSweep(experiments.Config{Workers: workers}, spec())
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	return mustJSON(t, res)
}

// TestForcedPanicFailsOnlyItsPoint is the acceptance criterion: an
// injected worker panic fails exactly one sweep point with a structured
// error naming experiment, point, trial and seed, while the rest of the
// sweep completes normally.
func TestForcedPanicFailsOnlyItsPoint(t *testing.T) {
	defer faultinject.Reset()
	faultinject.SetTrialStart(func(tr faultinject.Trial) {
		if tr.Point == 1 && tr.Trial == 2 {
			panic(fmt.Sprintf("injected fault at %s point=%d trial=%d", tr.Experiment, tr.Point, tr.Trial))
		}
	})
	res, err := experiments.RunSweep(experiments.Config{Workers: 2}, spec())
	if err != nil {
		t.Fatalf("sweep must survive an injected trial panic, got: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(res.Points))
	}
	for i, p := range res.Points {
		if i == 1 {
			continue
		}
		if p.Err != nil {
			t.Errorf("point %d poisoned by a fault injected into point 1: %v", i, p.Err)
		}
		if p.Completed != p.Trials {
			t.Errorf("point %d completed %d/%d trials", i, p.Completed, p.Trials)
		}
	}
	perr := res.Points[1].Err
	if perr == nil {
		t.Fatal("point 1 must carry the injected panic")
	}
	var pe *experiments.PanicError
	if !errors.As(perr, &pe) {
		t.Fatalf("want *experiments.PanicError, got %T: %v", perr, perr)
	}
	if pe.Experiment != "sweep/r" || pe.Point != 1 || pe.Trial != 2 {
		t.Errorf("wrong coordinates: %+v", pe)
	}
	for _, part := range []string{"experiment=sweep/r", "point=1", "trial=2", "seed=0x", "injected fault"} {
		if !strings.Contains(perr.Error(), part) {
			t.Errorf("error %q missing %q", perr.Error(), part)
		}
	}
}

// TestPanicInsideHookKeepsShardAlive: after a recovered injected panic
// the worker's pooled world is discarded, and the same shard keeps
// processing later trials with a rebuilt pool — the results of the
// surviving trials are unaffected.
func TestPanicInsideHookKeepsShardAlive(t *testing.T) {
	defer faultinject.Reset()
	var fired atomic.Bool
	faultinject.SetTrialStart(func(tr faultinject.Trial) {
		if tr.Point == 0 && tr.Trial == 0 && !fired.Swap(true) {
			panic("poison the first trial's pool")
		}
	})
	res, err := experiments.RunSweep(experiments.Config{Workers: 1}, spec())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Points[0].Err == nil {
		t.Fatal("point 0 must fail")
	}
	// Points 1 and 2 ran on the same single worker after the panic.
	want := clean(t, 1)
	var cleanRes experiments.SweepResult
	if err := json.Unmarshal(want, &cleanRes); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if res.Points[i].Err != nil {
			t.Fatalf("point %d failed: %v", i, res.Points[i].Err)
		}
		if res.Points[i].MeanT != cleanRes.Points[i].MeanT {
			t.Errorf("point %d meanT = %v, want %v (rebuilt pool diverged)",
				i, res.Points[i].MeanT, cleanRes.Points[i].MeanT)
		}
	}
}

// TestWorkerStallDoesNotChangeResults: a wedged-then-slow shard shifts
// wall-clock, never results.
func TestWorkerStallDoesNotChangeResults(t *testing.T) {
	want := clean(t, 4)
	defer faultinject.Reset()
	faultinject.SetWorkerStall(func(shard int) {
		if shard == 0 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	res, err := experiments.RunSweep(experiments.Config{Workers: 4}, spec())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := mustJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("stalled sweep differs from clean run\nstalled: %s\nclean: %s", got, want)
	}
}

// TestMidSweepKernelDowngradeBitIdentical forces the distance kernel
// from the vector path to the portable reference mid-sweep. Both paths
// are bit-identical by contract, so the sweep must not notice.
func TestMidSweepKernelDowngradeBitIdentical(t *testing.T) {
	want := clean(t, 2)
	defer kernel.SetGeneric(false)
	defer faultinject.Reset()
	faultinject.SetTrialStart(func(tr faultinject.Trial) {
		if tr.Point == 1 {
			kernel.SetGeneric(true)
		}
	})
	res, err := experiments.RunSweep(experiments.Config{Workers: 2}, spec())
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := mustJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("kernel downgrade changed results (bit-identity contract broken)\ndowngraded: %s\nclean: %s", got, want)
	}
}
