package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runScheduler plans an instance with the given scheduler and executes the
// plan for real, returning the computed C and the reference product.
func runScheduler(t *testing.T, s sched.Scheduler, pl *platform.Platform, inst sched.Instance, q int) (*matrix.BlockMatrix, *matrix.BlockMatrix) {
	t.Helper()
	res, err := s.Schedule(pl, inst)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	plan := res.Plan()
	if len(plan) == 0 {
		t.Fatalf("%s produced an empty plan", s.Name())
	}
	rng := rand.New(rand.NewSource(7))
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	c := matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), Config{Workers: pl.P(), T: inst.T}, plan, a, b, c, nil); err != nil {
		t.Fatalf("%s: engine: %v", s.Name(), err)
	}
	return c, want
}

func smallPlatform() *platform.Platform {
	return platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
}

func TestEngineComputesCorrectProduct(t *testing.T) {
	inst := sched.Instance{R: 7, S: 11, T: 5}
	pl := smallPlatform()
	for _, s := range []sched.Scheduler{sched.ODDOML{}, sched.BMM{}, sched.Het{}, sched.ORROML{}, sched.OMMOML{}, sched.Hom{}, sched.HomI{}} {
		got, want := runScheduler(t, s, pl, inst, 4)
		if !got.Equal(want, 0) {
			t.Errorf("%s: result deviates from reference by %g (want bitwise equality)", s.Name(), got.MaxAbsDiff(want))
		}
	}
}

func TestEngineWithPacedLinks(t *testing.T) {
	inst := sched.Instance{R: 4, S: 6, T: 3}
	pl := smallPlatform()
	res, err := sched.ODDOML{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	q := 2
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	c := matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	want := c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = Run(context.Background(), Config{Workers: pl.P(), T: inst.T, Platform: pl, TimePerUnit: 20 * time.Microsecond}, res.Plan(), a, b, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Errorf("paced run finished suspiciously fast (%v); pacing not applied", elapsed)
	}
	if d := c.MaxAbsDiff(want); d > 1e-9 {
		t.Errorf("paced run wrong by %g", d)
	}
}

func TestEngineRejectsBadPlans(t *testing.T) {
	q := 2
	a := matrix.NewBlockMatrix(2, 2, q)
	b := matrix.NewBlockMatrix(2, 2, q)
	c := matrix.NewBlockMatrix(2, 2, q)
	if err := Run(context.Background(), Config{Workers: 0, T: 2}, nil, a, b, c, nil); err == nil {
		t.Error("zero workers accepted")
	}
	if err := Run(context.Background(), Config{Workers: 1, T: 3}, nil, a, b, c, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	badChunk := []sim.PlanOp{{Worker: 0, Kind: trace.SendC, Chunk: matrix.Chunk{Row0: 0, Col0: 0, H: 5, W: 5}}}
	if err := Run(context.Background(), Config{Workers: 1, T: 2}, badChunk, a, b, c, nil); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	badWorker := []sim.PlanOp{{Worker: 3, Kind: trace.SendC, Chunk: matrix.Chunk{H: 1, W: 1}}}
	if err := Run(context.Background(), Config{Workers: 1, T: 2}, badWorker, a, b, c, nil); err == nil {
		t.Error("out-of-range worker accepted")
	}
	badPanel := []sim.PlanOp{
		{Worker: 0, Kind: trace.SendC, Chunk: matrix.Chunk{H: 1, W: 1}},
		{Worker: 0, Kind: trace.SendAB, Chunk: matrix.Chunk{H: 1, W: 1}, K0: 0, K1: 9},
	}
	if err := Run(context.Background(), Config{Workers: 1, T: 2}, badPanel, a, b, c, nil); err == nil {
		t.Error("out-of-range panel accepted")
	}
}

func TestEngineHandlesProtocolViolation(t *testing.T) {
	q := 2
	a := matrix.NewBlockMatrix(2, 2, q)
	b := matrix.NewBlockMatrix(2, 2, q)
	c := matrix.NewBlockMatrix(2, 2, q)
	// Installment before any chunk: the worker must flag it without
	// deadlocking the master.
	plan := []sim.PlanOp{
		{Worker: 0, Kind: trace.SendAB, Chunk: matrix.Chunk{H: 1, W: 1}, K0: 0, K1: 1},
		{Worker: 0, Kind: trace.SendC, Chunk: matrix.Chunk{H: 1, W: 1}},
		{Worker: 0, Kind: trace.RecvC, Chunk: matrix.Chunk{H: 1, W: 1}},
	}
	if err := Run(context.Background(), Config{Workers: 1, T: 2}, plan, a, b, c, nil); err == nil {
		t.Error("protocol violation not reported")
	}
}
