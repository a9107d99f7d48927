package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// faultyBackend wraps an in-process execution and injects ErrWorkerDown:
// worker `victim` dies on its opsBeforeDeath-th backend operation. Surviving
// workers compute for real, so the executor's failover must still produce a
// correct product.
type faultyBackend struct {
	nw             int
	victim         int
	opsBeforeDeath int
	opsSeen        int
	held           []struct {
		ch     matrix.Chunk
		blocks []*matrix.Block
	}
}

func newFaultyBackend(nw, victim, opsBeforeDeath int) *faultyBackend {
	return &faultyBackend{
		nw: nw, victim: victim, opsBeforeDeath: opsBeforeDeath,
		held: make([]struct {
			ch     matrix.Chunk
			blocks []*matrix.Block
		}, nw),
	}
}

func (f *faultyBackend) Workers() int { return f.nw }

func (f *faultyBackend) dead(w int) bool {
	if w != f.victim {
		return false
	}
	f.opsSeen++
	return f.opsSeen > f.opsBeforeDeath
}

func (f *faultyBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	if f.dead(w) {
		return fmt.Errorf("injected: %w", ErrWorkerDown)
	}
	if f.held[w].blocks != nil {
		return fmt.Errorf("worker %d already holds a chunk", w)
	}
	f.held[w].ch, f.held[w].blocks = ch, blocks
	return nil
}

func (f *faultyBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	if f.dead(w) {
		return fmt.Errorf("injected: %w", ErrWorkerDown)
	}
	if f.held[w].blocks == nil || f.held[w].ch != ch {
		return fmt.Errorf("worker %d got inputs for %v it does not hold", w, ch)
	}
	return ApplyInstallmentParallel(ch, f.held[w].blocks, a, b, k1-k0, 1)
}

func (f *faultyBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	if f.dead(w) {
		return nil, fmt.Errorf("injected: %w", ErrWorkerDown)
	}
	if f.held[w].blocks == nil || f.held[w].ch != ch {
		return nil, fmt.Errorf("worker %d asked to flush %v it does not hold", w, ch)
	}
	blocks := f.held[w].blocks
	f.held[w].blocks = nil
	return blocks, nil
}

// TestExecuteFailsOverDeadWorker kills each worker in turn at several points
// of the plan and checks the survivors still complete a correct product.
func TestExecuteFailsOverDeadWorker(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	pl := smallPlatform()
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 3
	for victim := 0; victim < pl.P(); victim++ {
		for _, deathAt := range []int{0, 1, 3, 7} {
			rng := rand.New(rand.NewSource(11))
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
			be := newFaultyBackend(pl.P(), victim, deathAt)
			if err := Execute(context.Background(), inst.T, plan, a, b, c, be, nil); err != nil {
				t.Fatalf("victim %d death-at %d: %v", victim, deathAt, err)
			}
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("victim %d death-at %d: C wrong by %g", victim, deathAt, d)
			}
		}
	}
}

// TestExecuteAllWorkersDead checks the executor reports failure rather than
// silently dropping chunks when no survivor remains.
func TestExecuteAllWorkersDead(t *testing.T) {
	inst := sched.Instance{R: 2, S: 2, T: 2}
	res, err := sched.Hom{}.Schedule(smallPlatform(), inst)
	if err != nil {
		t.Fatal(err)
	}
	q := 2
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	c := matrix.NewBlockMatrix(inst.R, inst.S, q)
	// Every worker dies immediately: victim catches one, and the replay
	// backend below kills the rest.
	be := &allDead{nw: smallPlatform().P()}
	if err := Execute(context.Background(), inst.T, res.Plan(), a, b, c, be, nil); err == nil {
		t.Fatal("executor claimed success with every worker dead")
	}
}

type allDead struct{ nw int }

func (d *allDead) Workers() int { return d.nw }
func (d *allDead) SendC(int, matrix.Chunk, []*matrix.Block) error {
	return ErrWorkerDown
}
func (d *allDead) SendAB(int, matrix.Chunk, int, int, []*matrix.Block, []*matrix.Block) error {
	return ErrWorkerDown
}
func (d *allDead) RecvC(int, matrix.Chunk) ([]*matrix.Block, error) {
	return nil, ErrWorkerDown
}
