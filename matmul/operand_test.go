package matmul

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	mmnet "repro/internal/net"
)

// cachingWorkers gives every loopback worker daemon an unbounded panel cache.
func cachingWorkers(i int) mmnet.WorkerOptions {
	return mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond, Cache: cache.NewPanelCache(0)}
}

// TestOperandSubmitAllRuntimesBitwise submits through operand handles — and
// through a mixed handle/matrix pair — on every runtime, against caching
// workers where there is a wire: C must stay bitwise-identical to the
// pre-redesign entry point, cached panels being the same bits as streamed
// ones.
func TestOperandSubmitAllRuntimesBitwise(t *testing.T) {
	const r, s, tt, q, seed = 6, 9, 4, 8, 91
	want := engineReference(t, r, s, tt, q, seed)

	for name, opts := range runtimes(t, cachingWorkers) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			sess, err := Open(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			a, b, c := seeded(t, r, s, tt, q, seed)
			ao, err := sess.Install(ctx, a)
			if err != nil {
				t.Fatal(err)
			}
			bo, err := sess.Install(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			defer ao.Release()
			defer bo.Release()

			// Twice with handles, once mixed: every combination must land on
			// the same bits.
			for round := 0; round < 2; round++ {
				job, err := sess.Submit(ctx, ao, bo, c)
				if err != nil {
					t.Fatal(err)
				}
				if err := job.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				if d := c.MaxAbsDiff(want); d != 0 {
					t.Fatalf("round %d: C differs from engine C by %g (want bitwise equal)", round, d)
				}
				// C += A·B accumulated; rebuild C and the oracle for the next
				// round so each round checks a fresh product.
				_, _, c2 := seeded(t, r, s, tt, q, seed)
				c = c2
			}
			job, err := sess.Submit(ctx, ao, b, c) // mixed: handle + plain matrix
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(want); d != 0 {
				t.Errorf("mixed submit: C differs from engine C by %g", d)
			}
		})
	}
}

// TestOperandReuseSavesTransfers resubmits the same installed operands over
// a Distributed session with caching workers: the session stats must show
// panel bytes saved and handshake hits once the caches are warm.
func TestOperandReuseSavesTransfers(t *testing.T) {
	const r, s, tt, q, seed = 6, 9, 4, 8, 92
	addrs := startWorkers(t, 2, cachingWorkers)
	ctx := context.Background()
	sess, err := Open(ctx, WithRuntime(Distributed(addrs...)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	a, b, _ := seeded(t, r, s, tt, q, seed)
	ao, err := sess.Install(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := sess.Install(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		_, _, c := seeded(t, r, s, tt, q, seed)
		job, err := sess.Submit(ctx, ao, bo, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	pc := st.PanelCache
	if pc == nil {
		t.Fatal("caching Distributed session reports no PanelCache stats")
	}
	if pc.ASavedBytes+pc.BSavedBytes == 0 {
		t.Errorf("no bytes saved across three identical submissions: %+v", pc)
	}
	if pc.PanelHits == 0 {
		t.Errorf("no handshake hits across three identical submissions: %+v", pc)
	}
	saved := false
	for _, w := range st.Workers {
		if w.CacheSavedBytes > 0 {
			saved = true
		}
	}
	if !saved {
		t.Error("no worker row reports saved bytes")
	}
}

// TestOperandLifecycle pins the handle contract: a released handle rejects
// new submissions, double release is an error, and a handle cannot cross
// sessions.
func TestOperandLifecycle(t *testing.T) {
	ctx := context.Background()
	sess, err := Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	other, err := Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	a, b, c := seeded(t, 4, 6, 3, 4, 93)
	ao, err := sess.Install(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if ao.Matrix() != a {
		t.Error("handle does not expose its matrix")
	}

	// Cross-session use is rejected before anything runs.
	if _, err := other.Submit(ctx, ao, b, c); err == nil || !strings.Contains(err.Error(), "different session") {
		t.Errorf("cross-session submit: %v", err)
	}

	if err := ao.Release(); err != nil {
		t.Fatal(err)
	}
	if err := ao.Release(); err == nil {
		t.Error("double release not rejected")
	}
	if _, err := sess.Submit(ctx, ao, b, c); err == nil || !strings.Contains(err.Error(), "released") {
		t.Errorf("submit after release: %v", err)
	}

	// Plain matrices keep working, and junk types are rejected.
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(ctx, 42, b, c); err == nil {
		t.Error("non-operand A accepted")
	}
}
