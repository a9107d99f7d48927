package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func TestPlaceSequentialAtFrontier(t *testing.T) {
	sc := newServeClock(platform.Homogeneous(1, 1, 1, 100))
	if got := sc.place(0, 5); got != 0 {
		t.Errorf("first placement at %v, want 0", got)
	}
	if got := sc.place(0, 3); got != 5 {
		t.Errorf("second placement at %v, want 5 (frontier)", got)
	}
}

func TestPlaceFillsGap(t *testing.T) {
	sc := newServeClock(platform.Homogeneous(1, 1, 1, 100))
	sc.place(0, 5)   // [0,5)
	sc.place(20, 10) // [20,30), leaving gap [5,20)
	if got := sc.place(0, 15); got != 5 {
		t.Errorf("gap fill at %v, want 5", got)
	}
	// Gap now fully consumed: next placement goes to the frontier.
	if got := sc.place(0, 1); got != 30 {
		t.Errorf("post-fill placement at %v, want 30", got)
	}
}

func TestPlaceSplitsGap(t *testing.T) {
	sc := newServeClock(platform.Homogeneous(1, 1, 1, 100))
	sc.place(0, 2)   // [0,2)
	sc.place(50, 10) // [50,60), gap [2,50)
	if got := sc.place(10, 5); got != 10 {
		t.Errorf("mid-gap placement at %v, want 10", got)
	}
	// Left fragment [2,10) and right fragment [15,50) must both survive.
	if got := sc.place(0, 8); got != 2 {
		t.Errorf("left fragment placement at %v, want 2", got)
	}
	if got := sc.place(0, 35); got != 15 {
		t.Errorf("right fragment placement at %v, want 15", got)
	}
}

// Property: any sequence of placements yields pairwise-disjoint intervals,
// each starting at or after its ready time.
func TestPlaceDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := newServeClock(platform.Homogeneous(1, 1, 1, 100))
		type iv struct{ s, e float64 }
		var placed []iv
		for i := 0; i < 60; i++ {
			ready := rng.Float64() * 100
			dur := 0.5 + rng.Float64()*10
			start := sc.place(ready, dur)
			if start < ready-1e-12 {
				return false
			}
			placed = append(placed, iv{start, start + dur})
		}
		sort.Slice(placed, func(a, b int) bool { return placed[a].s < placed[b].s })
		for i := 1; i < len(placed); i++ {
			if placed[i].s < placed[i-1].e-1e-9 {
				return false
			}
		}
		// Internal gap list must stay sorted and disjoint with ascending ends.
		for i := 1; i < len(sc.gaps); i++ {
			if sc.gaps[i].start < sc.gaps[i-1].end-1e-12 {
				return false
			}
		}
		return math.IsInf(sc.gaps[len(sc.gaps)-1].end, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAssignRespectsBufferGating(t *testing.T) {
	// One worker, c=1, w=10 (compute-bound): installment k+2 cannot finish
	// arriving before installment k's compute ends, so the master timeline
	// stretches at the compute pace while leaving gaps.
	pl := platform.Homogeneous(1, 1, 10, 1000)
	sc := newServeClock(pl)
	last, done := sc.assign(0, 2, 2, 5, false)
	// Installment: 4 blocks (4 time), compute 4 updates × 10 = 40.
	// inst0 arrives 4, computes 4→44; inst1 arrives 8, computes 44→84;
	// inst2 start ≥ ce(inst0)=44, arrives 48, computes 84→124;
	// inst3 start ≥ 84, arrives 88 → 124→164; inst4 ≥ 124 → 128, 164→204.
	if math.Abs(last-128) > 1e-9 {
		t.Errorf("last communication = %v, want 128", last)
	}
	if math.Abs(done-204) > 1e-9 {
		t.Errorf("compute done = %v, want 204", done)
	}
}

func TestAssignInterleavesAcrossWorkers(t *testing.T) {
	// Two compute-bound workers: the second worker's installments must fill
	// the gaps the first leaves, so the total last-comm time is far below
	// serial service.
	pl := platform.Homogeneous(2, 1, 10, 1000)
	sc := newServeClock(pl)
	sc.assign(0, 2, 2, 5, false)
	last2, _ := sc.assign(1, 2, 2, 5, false)
	if last2 > 140 {
		t.Errorf("second worker's chunk finished arriving at %v; gaps were not reused", last2)
	}
}

func TestAssignCountCFirstTimeOnly(t *testing.T) {
	pl := platform.Homogeneous(1, 1, 1, 1000)
	a := newServeClock(pl)
	la1, _ := a.assign(0, 3, 3, 4, true)
	b := newServeClock(pl)
	lb1, _ := b.assign(0, 3, 3, 4, false)
	if la1 <= lb1 {
		t.Errorf("countC first assignment (%v) should be later than without (%v)", la1, lb1)
	}
	// Second assignment: the C charge must not repeat.
	la2, _ := a.assign(0, 3, 3, 4, true)
	lb2, _ := b.assign(0, 3, 3, 4, false)
	if math.Abs((la2-la1)-(lb2-lb1)) > 1e-9 {
		t.Errorf("countC charged again on the second chunk: deltas %v vs %v", la2-la1, lb2-lb1)
	}
}

// TestCloneIsolation copies a clock into a dirty probe whose gap list is
// longer than the source's, as selection's scratch probes are: the copy must
// deep-equal the source, and an assignment on it must leave the source
// untouched.
func TestCloneIsolation(t *testing.T) {
	pl := platform.Homogeneous(2, 1, 1, 1000)
	sc := newServeClock(pl)
	sc.assign(0, 2, 2, 3, false)
	snapshotWork := sc.work
	snapshotLast := sc.lastCommEnd
	probe := newServeClock(pl)
	for i := 0; i < 4; i++ {
		probe.assign(i%2, 3, 2, 5, true)
	}
	probe.gaps = append(probe.gaps, gap{1e9, 2e9}, gap{3e9, 4e9})
	if len(probe.gaps) <= len(sc.gaps) {
		t.Fatalf("test premise broken: dirty probe has %d gaps, source %d", len(probe.gaps), len(sc.gaps))
	}
	probe.copyFrom(sc)
	if !reflect.DeepEqual(probe, sc) {
		t.Fatalf("copy differs from its source:\n got %+v\nwant %+v", probe, sc)
	}
	probe.assign(1, 2, 2, 3, false)
	if sc.work != snapshotWork || sc.lastCommEnd != snapshotLast {
		t.Error("probe assignment mutated the original clock")
	}
	if len(probe.gaps) == len(sc.gaps) && probe.lastCommEnd == sc.lastCommEnd {
		t.Error("probe assignment had no effect on the clone")
	}
}
