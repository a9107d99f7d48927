package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
)

// refClone is the allocate-per-probe copy selection used before scratch
// probes: the reference the scratch-clock scorer must match.
func refClone(sc *serveClock) *serveClock {
	c := *sc
	c.gaps = append([]gap(nil), sc.gaps...)
	c.computeEnd = append([]float64(nil), sc.computeEnd...)
	c.ce1 = append([]float64(nil), sc.ce1...)
	c.ce2 = append([]float64(nil), sc.ce2...)
	c.lastArrive = append([]float64(nil), sc.lastArrive...)
	c.sentC = append([]bool(nil), sc.sentC...)
	return &c
}

// refScore scores a candidate on a fresh clone of clock.
func refScore(clock *serveClock, i, h, w, t int, v Variant) (float64, *serveClock) {
	probe := refClone(clock)
	before, workBefore := probe.horizon(), probe.work
	probe.assign(i, h, w, t, v.CountC)
	after := probe.horizon()
	if v.Local {
		if after-before <= 1e-12 {
			return 1e18 * (probe.work - workBefore), probe
		}
		return (probe.work - workBefore) / (after - before), probe
	}
	return probe.work / after, probe
}

// refSchedule is HetVariant.Schedule with clone-per-probe selection.
func refSchedule(pl *platform.Platform, inst Instance, v Variant) (*Result, error) {
	m := mus(pl)
	mk := func(worker int, ch matrix.Chunk, t, seq int) sim.Job { return sim.MakeStandardJob(ch, t, seq) }
	carver := sim.NewCarver(inst.R, inst.S, inst.T, m, m, mk)
	clock := newServeClock(pl)
	queues := make([][]sim.Job, pl.P())
	for seq := 0; ; seq++ {
		best, bestScore := -1, math.Inf(-1)
		for i := range pl.Workers {
			ch, ok := carver.Peek(i)
			if !ok {
				continue
			}
			s, probe := refScore(clock, i, ch.H, ch.W, inst.T, v)
			if v.LookAhead {
				carver2 := sim.NewCarver(inst.R, inst.S, inst.T, m, m, mk)
				carver2.CopyFrom(carver)
				carver2.Next(i)
				bestSecond := math.Inf(-1)
				for j := range pl.Workers {
					if ch2, ok := carver2.Peek(j); ok {
						s2, _ := refScore(probe, j, ch2.H, ch2.W, inst.T, v)
						bestSecond = math.Max(bestSecond, s2)
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
		if best < 0 {
			break
		}
		job, _ := carver.Next(best)
		job.Seq = seq
		clock.assign(best, job.Chunk.H, job.Chunk.W, inst.T, v.CountC)
		queues[best] = append(queues[best], job)
	}
	name := HetVariant{V: v}.Name()
	res, err := sim.Run(sim.Config{
		Platform: pl, Source: sim.NewStatic(queues), Policy: &sim.Priority{Label: "het"}, Name: name,
	})
	if err != nil {
		return nil, err
	}
	return finish(name, res, inst, v.String())
}

// TestHetScratchScoringMatchesCloneReference runs every selection variant
// on the package's platforms and instances: scoring on scratch probes must
// pick the same chunks as scoring on a fresh clone per probe, so the plan
// and the makespan are identical.
func TestHetScratchScoringMatchesCloneReference(t *testing.T) {
	platforms := map[string]*platform.Platform{
		"FullyHetero(4)": platform.FullyHetero(4),
		"HeteroComm":     platform.HeteroComm(),
		"testPlatform":   testPlatform(),
	}
	instances := []Instance{testInstance, {R: 11, S: 29, T: 7}, {R: 9, S: 22, T: 6}, {R: 16, S: 48, T: 12}}
	for pname, pl := range platforms {
		for _, inst := range instances {
			for _, v := range Variants() {
				t.Run(fmt.Sprintf("%s/%dx%dx%d/%s", pname, inst.R, inst.S, inst.T, v), func(t *testing.T) {
					got, err := HetVariant{V: v}.Schedule(pl, inst)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSchedule(pl, inst, v)
					if err != nil {
						t.Fatal(err)
					}
					if got.Stats.Makespan != want.Stats.Makespan {
						t.Errorf("makespan %v, reference %v", got.Stats.Makespan, want.Stats.Makespan)
					}
					if !reflect.DeepEqual(got.Plan(), want.Plan()) {
						t.Error("plan differs from the clone-based reference")
					}
				})
			}
		}
	}
}
