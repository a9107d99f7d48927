package sched

import (
	"math"
	"sort"

	"repro/internal/platform"
)

// serveClock is the fast analytical model used at selection time by OMMOML
// and by Het's phase-1 resource selection. It schedules chunk deliveries on
// the master's one-port timeline installment by installment, with each
// installment gated by the receiving worker's double-buffered layout
// (installment k cannot start arriving before installment k-2 has finished
// computing — the paper's "ready times": a busy worker cannot receive data
// too much in advance, as its memory is limited).
//
// Unlike a naive serial model, the master does not block during those gated
// waits: the free intervals it leaves behind remain available to later
// assignments targeting other workers, exactly as the phase-2 execution
// interleaves installments of concurrently active chunks. The timeline is a
// list of free gaps, each placement consuming first-fit space.
type serveClock struct {
	pl          *platform.Platform
	gaps        []gap // ascending free intervals; the last extends to +Inf
	lastCommEnd float64
	computeEnd  []float64 // per-worker compute chain end
	ce1, ce2    []float64 // per-worker compute ends of the last two installments
	lastArrive  []float64 // per-worker end of the last delivered installment
	sentC       []bool    // per-worker: has it ever received a C chunk
	feasible    []bool    // per-worker: can hold the layout (μ > 0)
	work        float64   // total updates assigned so far
	busy        float64   // total master port occupancy committed so far
}

type gap struct{ start, end float64 }

func newServeClock(pl *platform.Platform) *serveClock {
	p := pl.P()
	sc := &serveClock{
		pl:         pl,
		gaps:       []gap{{0, math.Inf(1)}},
		computeEnd: make([]float64, p),
		ce1:        make([]float64, p),
		ce2:        make([]float64, p),
		lastArrive: make([]float64, p),
		sentC:      make([]bool, p),
		feasible:   make([]bool, p),
	}
	for i, w := range pl.Workers {
		sc.feasible[i] = platform.MuOverlap(w.M) > 0
	}
	return sc
}

// copyFrom makes sc an independent copy of src, reusing sc's slices: the
// candidate probes of selection overwrite the same scratch clocks for every
// candidate instead of allocating one per probe.
func (sc *serveClock) copyFrom(src *serveClock) {
	gaps, computeEnd, ce1, ce2 := sc.gaps, sc.computeEnd, sc.ce1, sc.ce2
	lastArrive, sentC := sc.lastArrive, sc.sentC
	*sc = *src
	sc.gaps = append(gaps[:0], src.gaps...)
	sc.computeEnd = append(computeEnd[:0], src.computeEnd...)
	sc.ce1 = append(ce1[:0], src.ce1...)
	sc.ce2 = append(ce2[:0], src.ce2...)
	sc.lastArrive = append(lastArrive[:0], src.lastArrive...)
	sc.sentC = append(sentC[:0], src.sentC...)
}

// horizon is the time the master has "spent" so far in the §5 sense — "either
// sending data to workers or staying idle waiting for the workers to finish
// their current computations": the latest of the port's total occupancy, the
// last scheduled communication's completion and the busiest worker's compute
// completion. No schedule of the work assigned so far can finish earlier, so
// the greedy ratio work/horizon steers toward the allocation minimizing the
// binding resource — the master's port when communication dominates (enroll
// the large-memory, fast-link workers: fewer input blocks per update), the
// compute pool when it does not (balance compute ends).
func (sc *serveClock) horizon() float64 {
	h := sc.lastCommEnd
	if sc.busy > h {
		h = sc.busy
	}
	for i, ce := range sc.computeEnd {
		if sc.feasible[i] && ce > h {
			h = ce
		}
	}
	return h
}

// place books the earliest interval of length dur starting at or after ready
// on the master timeline and returns its start. Gaps are disjoint and sorted,
// so both starts and ends are ascending: binary search skips every gap that
// closes before ready, which keeps selection quasi-linear even when busy
// workers leave thousands of waiting gaps behind.
func (sc *serveClock) place(ready, dur float64) float64 {
	lo := sort.Search(len(sc.gaps), func(i int) bool { return sc.gaps[i].end > ready })
	for i := lo; i < len(sc.gaps); i++ {
		g := sc.gaps[i]
		start := g.start
		if ready > start {
			start = ready
		}
		if start+dur > g.end {
			continue
		}
		// Consume [start, start+dur) out of g.
		tail := gap{start + dur, g.end}
		if start > g.start {
			sc.gaps[i] = gap{g.start, start}
			if tail.end-tail.start > 1e-12 {
				sc.gaps = append(sc.gaps, gap{})
				copy(sc.gaps[i+2:], sc.gaps[i+1:])
				sc.gaps[i+1] = tail
			}
		} else if tail.end-tail.start > 1e-12 {
			sc.gaps[i] = tail
		} else {
			sc.gaps = append(sc.gaps[:i], sc.gaps[i+1:]...)
		}
		return start
	}
	// Unreachable: the final gap is infinite.
	panic("sched: serveClock found no gap")
}

// assign schedules one h×w chunk of t installments for worker i as early as
// the one-port timeline and the worker's buffers allow. countC additionally
// books the initial C-chunk transfer the first time worker i ever receives
// data (the paper's optional variant). It returns the end of the chunk's
// last communication and the chunk's compute completion, and updates the
// clock (call on a probe copy to evaluate a hypothesis).
func (sc *serveClock) assign(i, h, w, t int, countC bool) (lastComm, computeDone float64) {
	wk := sc.pl.Workers[i]
	if countC && !sc.sentC[i] {
		dur := float64(h*w) * wk.C
		end := sc.place(sc.lastArrive[i], dur) + dur
		sc.lastArrive[i] = end
		sc.busy += dur
		sc.lastCommEnd = math.Max(sc.lastCommEnd, end)
	}
	sc.sentC[i] = true
	blocks := float64(h+w) * wk.C
	updates := float64(h*w) * wk.W
	sc.busy += blocks * float64(t)
	for k := 0; k < t; k++ {
		// In-order delivery per worker, gated by the double buffer.
		ready := math.Max(sc.ce2[i], sc.lastArrive[i])
		arrive := sc.place(ready, blocks) + blocks
		sc.lastArrive[i] = arrive
		ce := math.Max(arrive, sc.computeEnd[i]) + updates
		sc.ce2[i], sc.ce1[i] = sc.ce1[i], ce
		sc.computeEnd[i] = ce
		if k == t-1 {
			lastComm = arrive
		}
	}
	sc.work += float64(h*w) * float64(t)
	sc.lastCommEnd = math.Max(sc.lastCommEnd, lastComm)
	sc.prune()
	return lastComm, sc.computeEnd[i]
}

// maxGaps caps the free-interval list. Candidate probes copy the clock, so
// an unbounded list makes selection quadratic in the schedule length; old
// gaps are the least likely to be usable (every active worker's ready time
// only grows), so the oldest are dropped first. Dropping a gap is
// conservative: a placement that would have used it lands later instead.
const maxGaps = 512

// prune drops gaps that no worker can use anymore — those closing before
// every worker's earliest possible next ready time — then enforces maxGaps.
func (sc *serveClock) prune() {
	watermark := math.Inf(1)
	for i := range sc.computeEnd {
		if !sc.feasible[i] {
			continue
		}
		ready := math.Max(sc.ce2[i], sc.lastArrive[i])
		if ready < watermark {
			watermark = ready
		}
	}
	cut := 0
	for cut < len(sc.gaps)-1 && sc.gaps[cut].end <= watermark {
		cut++
	}
	if over := len(sc.gaps) - cut - maxGaps; over > 0 {
		cut += over
	}
	if cut > 0 {
		sc.gaps = sc.gaps[cut:]
	}
}
