package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestRecorderEventCounts checks the invariant the per-job trace export
// relies on: a recorded run carries exactly one sendC and one recvC span per
// chunk and one sendAB span per installment — the same op counts as the
// plan — with or without estimate tracking, and the computed C is still
// correct.
func TestRecorderEventCounts(t *testing.T) {
	pl := smallPlatform()
	inst := sched.Instance{R: 7, S: 11, T: 5}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	want := map[trace.Kind]int{}
	for _, op := range plan {
		want[op.Kind]++
	}
	if want[trace.SendC] == 0 || want[trace.SendAB] == 0 || want[trace.SendC] != want[trace.RecvC] {
		t.Fatalf("degenerate plan: op counts %v", want)
	}

	tracked := &Options{Tracker: adapt.NewTracker(pl.Workers, time.Microsecond, 0)}
	for name, opts := range map[string]*Options{"pipelined": nil, "tracked": tracked} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			q := 3
			a := matrix.NewBlockMatrix(inst.R, inst.T, q)
			b := matrix.NewBlockMatrix(inst.T, inst.S, q)
			c := matrix.NewBlockMatrix(inst.R, inst.S, q)
			a.FillRandom(rng)
			b.FillRandom(rng)
			c.FillRandom(rng)
			wantC := c.Clone()
			if err := matrix.Multiply(wantC, a, b); err != nil {
				t.Fatal(err)
			}

			rec := trace.NewRecorder("Het")
			ctx := trace.NewContext(context.Background(), rec)
			cfg := Config{Workers: pl.P(), T: inst.T}
			if err := Run(ctx, cfg, plan, a, b, c, opts); err != nil {
				t.Fatal(err)
			}
			if !c.Equal(wantC, 0) {
				t.Errorf("recorded run deviates from reference by %g", c.MaxAbsDiff(wantC))
			}

			tr := rec.Trace()
			got := map[trace.Kind]int{}
			for _, x := range tr.Transfers {
				if x.Worker < 0 || x.Worker >= pl.P() {
					t.Errorf("span on worker %d outside the platform", x.Worker)
				}
				got[x.Kind]++
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("%v spans = %d, plan has %d ops", k, got[k], n)
				}
			}
			// 2·chunks + installments: the uniform per-job total the serve
			// layer's exported traces are checked against.
			if total, exp := len(tr.Transfers), 2*want[trace.SendC]+want[trace.SendAB]; total != exp {
				t.Errorf("total spans = %d, want 2·chunks+installments = %d", total, exp)
			}
		})
	}
}
