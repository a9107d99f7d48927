package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sim"
)

// stallBackend is a concurrency-safe in-process compute backend for the
// k-of-n gate tests: every worker computes installments for real (so results
// are bitwise-comparable against the serial reference), and a pluggable
// stall predicate, asked once per unit at SendC, freezes chosen units at
// their RecvC until the gate wire-cancels them through CancelUnit — the
// in-process stand-in for a live-but-stalled TCP worker. With sendWaits a
// stalled unit also holds its first SendAB until the cancel arrives, so the
// cancel provably lands before the unit reaches RecvC.
//
// Cancels are sticky, as UnitCanceler requires: each unit's cancel channel
// exists from SendC on, and a cancel that arrives mid-send is honoured when
// the unit reaches RecvC.
type stallBackend struct {
	nw        int
	stall     func(w int, ch matrix.Chunk) bool
	sendWaits bool

	mu    sync.Mutex
	units []map[matrix.Chunk]*stallUnit
}

type stallUnit struct {
	blocks  []*matrix.Block
	stalled bool
	cancel  chan struct{} // closed by CancelUnit
}

func newStallBackend(nw int, stall func(w int, ch matrix.Chunk) bool) *stallBackend {
	be := &stallBackend{nw: nw, stall: stall}
	be.units = make([]map[matrix.Chunk]*stallUnit, nw)
	for w := range be.units {
		be.units[w] = make(map[matrix.Chunk]*stallUnit)
	}
	return be
}

func (be *stallBackend) Workers() int { return be.nw }

func (be *stallBackend) unit(w int, ch matrix.Chunk) (*stallUnit, error) {
	be.mu.Lock()
	defer be.mu.Unlock()
	u, ok := be.units[w][ch]
	if !ok {
		return nil, fmt.Errorf("worker %d does not hold %v", w, ch)
	}
	return u, nil
}

// waitCancel parks a stalled unit until its cancel, or fails after 30s.
func (u *stallUnit) waitCancel(w int, ch matrix.Chunk) error {
	select {
	case <-u.cancel:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("worker %d stalled on %v and was never canceled", w, ch)
	}
}

func (be *stallBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	be.mu.Lock()
	defer be.mu.Unlock()
	if _, dup := be.units[w][ch]; dup {
		return fmt.Errorf("worker %d already holds chunk %v", w, ch)
	}
	be.units[w][ch] = &stallUnit{blocks: blocks, stalled: be.stall != nil && be.stall(w, ch), cancel: make(chan struct{})}
	return nil
}

func (be *stallBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	u, err := be.unit(w, ch)
	if err != nil {
		return err
	}
	if u.stalled && be.sendWaits && k0 == 0 {
		if err := u.waitCancel(w, ch); err != nil {
			return err
		}
	}
	return ApplyInstallmentParallel(ch, u.blocks, a, b, k1-k0, 1)
}

func (be *stallBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	u, err := be.unit(w, ch)
	if err != nil {
		return nil, err
	}
	if u.stalled {
		err = u.waitCancel(w, ch)
	}
	be.mu.Lock()
	delete(be.units[w], ch)
	be.mu.Unlock()
	switch {
	case err != nil:
		return nil, err
	case u.stalled:
		return nil, fmt.Errorf("stalled unit dropped: %w", ErrUnitCanceled)
	}
	return u.blocks, nil
}

func (be *stallBackend) CancelUnit(w int, ch matrix.Chunk) {
	be.mu.Lock()
	defer be.mu.Unlock()
	if u, ok := be.units[w][ch]; ok {
		select {
		case <-u.cancel:
		default:
			close(u.cancel)
		}
	}
}

// planAndMatrices schedules inst with s and builds the operands plus the
// serial reference C for bitwise comparison.
func planAndMatrices(t *testing.T, s sched.Scheduler, inst sched.Instance, q int, seed int64) (plan []sim.PlanOp, a, b, c, base *matrix.BlockMatrix) {
	t.Helper()
	res, err := s.Schedule(smallPlatform(), inst)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, base = buildMatrices(t, inst, q, seed)
	return res.Plan(), a, b, c, base
}

// runRedundant runs plan in process under red.
func runRedundant(inst sched.Instance, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, red *Redundancy) error {
	cfg := Config{Workers: smallPlatform().P(), T: inst.T}
	return Run(context.Background(), cfg, plan, a, b, c, &Options{Redundancy: red})
}

// TestRedundantNilRedMatchesPlainBitwise: a nil Redundancy must be exactly
// plain dispatch, byte for byte.
func TestRedundantNilRedMatchesPlainBitwise(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	plan, a, b, c, base := planAndMatrices(t, sched.Het{}, inst, 3, 11)
	if err := runRedundant(inst, plan, a, b, c, nil); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(base); d != 0 {
		t.Fatalf("nil-red C differs from the serial reference by %g (want bitwise equal)", d)
	}
}

// TestRedundantEmptyUnitsMatchesPlainBitwise: the gate with no planned units
// (speculation armed but never needed on a healthy run) commits only
// systematic results, so C stays bitwise-identical.
func TestRedundantEmptyUnitsMatchesPlainBitwise(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	plan, a, b, c, base := planAndMatrices(t, sched.Het{}, inst, 3, 12)
	if err := runRedundant(inst, plan, a, b, c, &Redundancy{Mode: "replicated"}); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(base); d != 0 {
		t.Fatalf("gated C differs from the serial reference by %g (want bitwise equal)", d)
	}
}

// TestRedundantReplicasBitwiseAndArbitrated replicates every plan job onto
// another worker, so nearly every job produces a duplicate result the gate
// must arbitrate (first commit wins, laggard discarded). Run under -race this
// is the duplicate-result arbitration test; the result must stay bitwise
// equal to the serial reference because every copy replays the identical snapshot
// and installment sequence.
func TestRedundantReplicasBitwiseAndArbitrated(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	for _, s := range []sched.Scheduler{sched.Het{}, sched.Hom{}} {
		plan, a, b, c, base := planAndMatrices(t, s, inst, 3, 13)
		jobs, _, err := sim.JobsFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		nw := smallPlatform().P()
		red := &Redundancy{Mode: "replicated"}
		for ji, j := range jobs {
			red.Units = append(red.Units, RedundantUnit{Worker: (j.Worker + 1) % nw, Job: ji})
		}
		if err := runRedundant(inst, plan, a, b, c, red); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if d := c.MaxAbsDiff(base); d != 0 {
			t.Fatalf("%s: replicated C differs from the serial reference by %g (want bitwise equal)", s.Name(), d)
		}
		st := red.Stats()
		if st.Units == 0 {
			t.Errorf("%s: no redundant units dispatched (stats %+v)", s.Name(), st)
		}
		if st.DuplicateWins > 0 && st.WastedBytes == 0 {
			t.Errorf("%s: duplicate wins recorded without wasted bytes (stats %+v)", s.Name(), st)
		}
	}
}

// TestRedundantAbsorbsStalledUnit freezes the first copy of one chosen job
// to be dispatched — whichever worker carries it — for 30s ≫ the test
// budget, and expects the gate to commit that job through another copy
// (replica or speculation) and wire-cancel the stalled one: the straggler is
// absorbed with zero timeout waiting, and C stays bitwise-identical because
// every committed result is systematic. In the sendWaits case the stalled
// unit is still in SendAB when its cancel arrives, which only a sticky
// cancel absorbs in time.
func TestRedundantAbsorbsStalledUnit(t *testing.T) {
	for _, sendWaits := range []bool{false, true} {
		inst := sched.Instance{R: 8, S: 12, T: 5}
		plan, a, b, c, base := planAndMatrices(t, sched.Het{}, inst, 3, 14)
		jobs, _, err := sim.JobsFromPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		nw := smallPlatform().P()
		red := &Redundancy{Mode: "replicated"}
		for ji, j := range jobs {
			red.Units = append(red.Units, RedundantUnit{Worker: (j.Worker + 1) % nw, Job: ji})
		}
		victim := jobs[0].Chunk
		var mu sync.Mutex
		engaged := false
		be := newStallBackend(nw, func(w int, ch matrix.Chunk) bool {
			mu.Lock()
			defer mu.Unlock()
			if ch == victim && !engaged {
				engaged = true
				return true
			}
			return false
		})
		be.sendWaits = sendWaits
		start := time.Now()
		if err := Execute(context.Background(), inst.T, plan, a, b, c, be, &Options{Redundancy: red}); err != nil {
			t.Fatalf("sendWaits=%v: %v", sendWaits, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("sendWaits=%v: run took %v; the stalled unit was waited out instead of absorbed", sendWaits, elapsed)
		}
		if d := c.MaxAbsDiff(base); d != 0 {
			t.Fatalf("sendWaits=%v: C differs from the serial reference by %g (want bitwise equal: every commit is systematic)", sendWaits, d)
		}
		if st := red.Stats(); st.Absorbed == 0 {
			t.Errorf("sendWaits=%v: stalled unit was never recorded as absorbed (stats %+v)", sendWaits, st)
		}
		mu.Lock()
		if !engaged {
			t.Fatalf("sendWaits=%v: stall never engaged; the test exercised nothing", sendWaits)
		}
		mu.Unlock()
	}
}

// TestRedundantValidationRejectsBadUnits: malformed redundancy must fail
// before any dispatch.
func TestRedundantValidationRejectsBadUnits(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	plan, a, b, c, _ := planAndMatrices(t, sched.Het{}, inst, 3, 15)
	for name, units := range map[string][]RedundantUnit{
		"worker out of range": {{Worker: 99, Job: 0}},
		"job out of range":    {{Worker: 0, Job: 9999}},
		"negative worker":     {{Worker: -1, Job: 0}},
	} {
		if err := runRedundant(inst, plan, a, b, c, &Redundancy{Mode: "replicated", Units: units}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
