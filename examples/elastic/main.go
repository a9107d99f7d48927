// The elastic runtime end to end: a job starts on two real (loopback TCP)
// workers, one of them crashes mid-job, a third worker joins mid-job, and
// the product still comes out bitwise-identical to a static in-process run —
// the re-planned chunks write the same disjoint C regions through the same
// ascending-k kernel order, whoever ends up computing them. Along the way
// the session's live throughput estimates (EWMA over every observed
// transfer and compute) are printed: the numbers the executor re-plans
// with, and the numbers an adaptive mmserve daemon selects
// resources with.
//
//	go run ./examples/elastic
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	stdnet "net"
	"time"

	mmnet "repro/internal/net"
	"repro/matmul"
)

func main() {
	ctx := context.Background()
	const r, s, t, q = 10, 15, 6, 8

	// Three loopback worker daemons. Worker 2 is rigged to crash after four
	// installments — a real mid-job departure, socket gone. Worker 3 starts
	// but is NOT part of the session: it joins later, mid-job.
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
		o := mmnet.WorkerOptions{Heartbeat: 100 * time.Millisecond}
		if i == 1 {
			o.CrashAfterInstalls = 4
		}
		go mmnet.Serve(ln, fmt.Sprintf("worker-%d", i+1), o)
	}

	// Operands, and the bitwise oracle from a static in-process session.
	newOps := func() (a, b, c *matmul.Matrix) {
		rng := rand.New(rand.NewSource(42))
		a, b, c = matmul.NewMatrix(r, t, q), matmul.NewMatrix(t, s, q), matmul.NewMatrix(r, s, q)
		a.FillRandom(rng)
		b.FillRandom(rng)
		c.FillRandom(rng)
		return
	}
	pl := []matmul.Worker{{C: 1, W: 1, M: 60}, {C: 1, W: 1, M: 60}}
	want := func() *matmul.Matrix {
		sess, err := matmul.Open(ctx, matmul.WithPlatform(pl...))
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		a, b, c := newOps()
		job, err := sess.Submit(ctx, a, b, c)
		if err != nil {
			log.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			log.Fatal(err)
		}
		return c
	}()

	// The elastic session: two workers, adaptive. Submit, then join
	// the third worker while the job runs — the crash of worker-2 and the
	// join of worker-3 both land mid-flight.
	sess, err := matmul.Open(ctx,
		matmul.WithRuntime(matmul.Distributed(addrs[:2]...)),
		matmul.WithPlatform(pl...),
		matmul.WithAdaptive(0))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	a, b, c := newOps()
	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.AddWorker(ctx, addrs[2], matmul.Worker{C: 1, W: 1, M: 60}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("elastic: worker-3 joined the session mid-job; worker-2 will crash mid-job")
	if err := job.Wait(ctx); err != nil {
		log.Fatalf("elastic job failed: %v", err)
	}

	if d := c.MaxAbsDiff(want); d != 0 {
		log.Fatalf("FAILED: elastic C deviates from the static in-process C by %g (want bitwise equal)", d)
	}
	fmt.Println("elastic C == static in-process C, bitwise, despite one departure and one join")

	st, err := sess.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session stats: adaptive=%v replans=%d\n", st.Adaptive, st.Replans)
	for _, w := range st.Workers {
		if w.Samples > 0 {
			fmt.Printf("  %-10s measured c=%v/blk w=%v/upd over %d samples\n", w.Name, w.CPerBlock, w.WPerUpdate, w.Samples)
		} else {
			fmt.Printf("  %-10s no observations (declared c=%g w=%g)\n", w.Name, w.Spec.C, w.Spec.W)
		}
	}
	fmt.Println("OK")
}
