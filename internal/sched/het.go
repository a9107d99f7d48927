package sched

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Variant identifies one of the eight incremental resource-selection
// heuristics of §5: {global, local} criterion × {with, without} one-step
// look-ahead × {counting, ignoring} the initial C-chunk cost.
type Variant struct {
	Local     bool // local criterion (per-communication ratio) instead of global
	LookAhead bool // evaluate candidate pairs, commit the first
	CountC    bool // charge the C-chunk transfer on a worker's first selection
}

// String names the variant as in the paper's discussion, e.g. "global+la+C".
func (v Variant) String() string {
	s := "global"
	if v.Local {
		s = "local"
	}
	if v.LookAhead {
		s += "+la"
	}
	if v.CountC {
		s += "+C"
	}
	return s
}

// Variants enumerates all eight selection heuristics.
func Variants() []Variant {
	var out []Variant
	for _, local := range []bool{false, true} {
		for _, la := range []bool{false, true} {
			for _, cc := range []bool{false, true} {
				out = append(out, Variant{Local: local, LookAhead: la, CountC: cc})
			}
		}
	}
	return out
}

// HetVariant runs the heterogeneous algorithm with one fixed selection
// variant: phase 1 allocates chunks to workers with the incremental
// heuristic, phase 2 executes that allocation, the master serving ready
// operations in selection order.
type HetVariant struct {
	V Variant
}

// Name implements Scheduler.
func (h HetVariant) Name() string { return "Het[" + h.V.String() + "]" }

// Schedule implements Scheduler.
func (h HetVariant) Schedule(pl *platform.Platform, inst Instance) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	queues, err := selectChunks(pl, inst, h.V)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(sim.Config{
		Platform: pl,
		Source:   sim.NewStatic(queues),
		Policy:   &sim.Priority{Label: "het"},
		Name:     h.Name(),
	})
	if err != nil {
		return nil, err
	}
	return finish(h.Name(), res, inst, h.V.String())
}

// selectChunks is phase 1: simulate the master's deliveries with the serve
// clock, repeatedly choosing the worker that optimizes the variant's
// criterion, carving chunks column-band-wise until the whole C matrix is
// allocated. Returns per-worker job queues with Seq = selection order.
func selectChunks(pl *platform.Platform, inst Instance, v Variant) ([][]sim.Job, error) {
	m := mus(pl)
	if len(feasibleWorkers(m)) == 0 {
		return nil, fmt.Errorf("Het: no worker can hold the layout")
	}
	mk := func(worker int, ch matrix.Chunk, t, seq int) sim.Job { return sim.MakeStandardJob(ch, t, seq) }
	carver := sim.NewCarver(inst.R, inst.S, inst.T, m, m, mk)
	clock := newServeClock(pl)
	// Scratch state, overwritten for every candidate: probe clock level 0
	// holds the candidate's assignment, level 1 the look-ahead follow-up, and
	// the look-ahead carver the candidate's carve.
	scr := &scratch{probes: [2]*serveClock{newServeClock(pl), newServeClock(pl)}, carver: &sim.Carver{}}
	queues := make([][]sim.Job, pl.P())
	seq := 0
	for {
		best := pickWorker(pl, carver, clock, scr, inst.T, v)
		if best < 0 {
			break
		}
		job, ok := carver.Next(best)
		if !ok {
			return nil, fmt.Errorf("Het: carver refused a peeked chunk for P%d", best+1)
		}
		job.Seq = seq
		seq++
		clock.assign(best, job.Chunk.H, job.Chunk.W, inst.T, v.CountC)
		queues[best] = append(queues[best], job)
	}
	return queues, nil
}

// score evaluates assigning the peeked chunk of worker i on probe, which it
// first overwrites with a copy of clock, and returns the variant's base
// criterion (higher is better); probe is left holding the hypothesis for
// look-ahead chaining.
func score(clock, probe *serveClock, i, h, w, t int, v Variant) float64 {
	probe.copyFrom(clock)
	before := probe.horizon()
	workBefore := probe.work
	probe.assign(i, h, w, t, v.CountC)
	after := probe.horizon()
	if v.Local {
		// Work enabled by this communication over the time it extends the
		// master's horizon. A chunk that slots entirely into earlier idle
		// gaps and compute slack is free: score it by work alone
		// (effectively infinite ratio, ties broken by the larger chunk).
		if after-before <= 1e-12 {
			return 1e18 * (probe.work - workBefore)
		}
		return (probe.work - workBefore) / (after - before)
	}
	// Total work assigned so far over "the time spent by the master so far,
	// either sending data to workers or staying idle waiting for the workers
	// to finish their current computations" (§5): the later of the last
	// communication's completion and the workers' compute horizon.
	return probe.work / after
}

// scratch is selection's reusable probe state (see selectChunks).
type scratch struct {
	probes [2]*serveClock
	carver *sim.Carver
}

// pickWorker returns the worker index optimizing the variant's criterion for
// the next selection, or -1 when no work remains.
func pickWorker(pl *platform.Platform, carver *sim.Carver, clock *serveClock, scr *scratch, t int, v Variant) int {
	best, bestScore := -1, math.Inf(-1)
	for i := range pl.Workers {
		ch, ok := carver.Peek(i)
		if !ok {
			continue
		}
		s := score(clock, scr.probes[0], i, ch.H, ch.W, t, v)
		if v.LookAhead {
			// One-step look-ahead: chase the best follow-up assignment and
			// score the pair; commit only the first element.
			carver2 := scr.carver
			carver2.CopyFrom(carver)
			carver2.Next(i) // apply i's carve so follow-up peeks are exact
			bestSecond := math.Inf(-1)
			for j := range pl.Workers {
				ch2, ok2 := carver2.Peek(j)
				if !ok2 {
					continue
				}
				s2 := score(scr.probes[0], scr.probes[1], j, ch2.H, ch2.W, t, v)
				if s2 > bestSecond {
					bestSecond = s2
				}
			}
			if !math.IsInf(bestSecond, -1) {
				s = bestSecond
			}
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Het is the meta-algorithm the paper benchmarks: it simulates all eight
// selection variants and runs the one with the best simulated makespan
// (§6.2: "in a first step we simulate the eight versions, and then we pick
// and run the best one").
type Het struct{}

// Name implements Scheduler.
func (Het) Name() string { return "Het" }

// Schedule implements Scheduler.
func (Het) Schedule(pl *platform.Platform, inst Instance) (*Result, error) {
	var best *Result
	var errs []error
	for _, v := range Variants() {
		r, err := (HetVariant{V: v}).Schedule(pl, inst)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if best == nil || r.Stats.Makespan < best.Stats.Makespan {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("Het: all variants failed: %v", errs)
	}
	best.Algorithm = "Het"
	best.Note = "winner: " + best.Note
	return best, nil
}
