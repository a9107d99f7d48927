package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/sched"
)

// TestRunContextCancelBoundedUnderPacing is the facade's promptness
// guarantee at the engine layer: with transfers paced slowly enough that the
// full plan would take many seconds of modeled wall-clock time, cancelling
// the context must return well before the plan could have finished — the
// paced sleep in flight is interrupted, not waited out.
func TestRunContextCancelBoundedUnderPacing(t *testing.T) {
	for _, onePort := range []bool{false, true} {
		inst := sched.Instance{R: 8, S: 16, T: 6}
		pl := platform.Homogeneous(4, 1, 1, 60)
		res, err := sched.Het{}.Schedule(pl, inst)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c, _ := buildMatrices(t, inst, 8, 5)

		// ~1ms per block×unit: the Het plan moves hundreds of block-units,
		// so an uncancelled run would pace for well over a second.
		cfg := Config{
			Workers: pl.P(), T: inst.T, Platform: pl, TimePerUnit: time.Millisecond,
			OnePort: onePort,
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		err = Run(ctx, cfg, res.Plan(), a, b, c, nil)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("onePort=%v: cancelled run returned nil", onePort)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("onePort=%v: cancelled run returned %v, want context.Canceled in the chain", onePort, err)
		}
		// Bounded by one in-flight paced slot per dispatch path plus
		// scheduling noise — far below the seconds a full run paces for.
		if elapsed > 2*time.Second {
			t.Fatalf("onePort=%v: cancelled run took %v, want prompt return", onePort, elapsed)
		}
	}
}

// TestRunContextBackgroundUnchanged: a run under a background context (no
// deadline, no cancel) completes and verifies.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	inst := sched.Instance{R: 4, S: 6, T: 3}
	pl := smallPlatform()
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := buildMatrices(t, inst, 4, 9)
	if err := Run(context.Background(), Config{Workers: pl.P(), T: inst.T}, res.Plan(), a, b, c, nil); err != nil {
		t.Fatal(err)
	}
	if !c.Equal(want, 0) {
		t.Fatalf("C deviates from reference by %g", c.MaxAbsDiff(want))
	}
}

// TestExecuteContextPreCancelled: a context cancelled before the first
// operation fails the run immediately with the context error and issues no
// work, with or without the k-of-n gate.
func TestExecuteContextPreCancelled(t *testing.T) {
	inst := sched.Instance{R: 4, S: 6, T: 3}
	pl := smallPlatform()
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, _ := buildMatrices(t, inst, 4, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range []*Options{nil, {Redundancy: &Redundancy{Mode: "replicated"}}} {
		err := Run(ctx, Config{Workers: pl.P(), T: inst.T}, res.Plan(), a, b, c, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("opts=%+v: pre-cancelled run returned %v, want context.Canceled", opts, err)
		}
	}
}
