// Multi-job scheduling service on a single machine: a persistent 4-worker
// fleet, an mmserve daemon, and two products submitted concurrently over the
// client protocol. The daemon's resource selection gives each job a disjoint
// leased subset, both run at the same time, and each returned C must be
// bitwise-identical to the in-process engine's (any correct execution updates
// every C block through the same ascending-k kernel sequence, so the service
// may pick any subset it likes without changing a single bit).
//
// One worker is rigged to crash mid-job (abrupt connection close, as a
// killed process would). Its job fails over inside its own lease, the other
// job never notices, and the fleet re-dials the worker's still-running
// daemon afterwards — a third job then runs on the healed fleet: many jobs,
// one fleet, zero worker restarts.
//
//	go run ./examples/serve
//
// Against real machines the workers are cmd/mmworker daemons and the service
// is cmd/mmserve; this example wires the same endpoints in one process so it
// can run anywhere (including CI) without orchestration.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	stdnet "net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/matmul"
)

const crasher = 3 // worker index rigged to die mid-job

func main() {
	// Four loopback worker daemons running the exact cmd/mmworker serve
	// loop; the last one abruptly closes its connection after two
	// installments of every session — a crash the service must absorb.
	var workerAddrs []string
	for i := 0; i < 4; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		o := mmnet.WorkerOptions{Heartbeat: 100 * time.Millisecond}
		if i == crasher {
			o.CrashAfterInstalls = 2
		}
		workerAddrs = append(workerAddrs, ln.Addr().String())
		go mmnet.Serve(ln, fmt.Sprintf("worker-%d", i+1), o)
	}

	// The daemon: persistent fleet + job queue + client listener.
	fleet, err := serve.NewFleet(workerAddrs, platform.Homogeneous(4, 1, 1, 60).Workers, serve.FleetOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()
	srv := serve.NewServer(fleet, serve.Config{MaxWorkersPerJob: 2})
	defer srv.Close()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go srv.ListenAndServe(ln)
	daemon := ln.Addr().String()
	fmt.Printf("mmserve daemon on %s over a persistent 4-worker fleet\n", daemon)

	// Two concurrent client submissions, big enough (~100ms each) that they
	// overlap. Job 2's lease will include the rigged worker; its failover
	// must not leak into job 1. A poller watches the daemon's stats so the
	// disjointness claim below is only asserted for jobs that really ran at
	// the same time.
	inst := sched.Instance{R: 6, S: 9, T: 4}
	q := 64
	var wg sync.WaitGroup
	results := make([]*matrix.BlockMatrix, 2)
	references := make([]*matrix.BlockMatrix, 2)
	stopPoll := make(chan struct{})
	sawBothRunning := make(chan bool, 1)
	go func() {
		both := false
		for {
			select {
			case <-stopPoll:
				sawBothRunning <- both
				return
			case <-time.After(2 * time.Millisecond):
				if st, err := fetchStats(daemon, 5*time.Second); err == nil && st.Running >= 2 {
					both = true
				}
			}
		}
	}()
	// The submissions go through the public facade: one matmul.Session on
	// the Remote runtime multiplexes both concurrent jobs onto the daemon.
	sess, err := matmul.Open(context.Background(), matmul.WithRuntime(matmul.Remote(daemon)))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	for i := 0; i < 2; i++ {
		a, b, c := seededProduct(inst, q, int64(40+i))
		references[i] = engineReference(inst, q, int64(40+i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := sess.Submit(context.Background(), a, b, c)
			if err != nil {
				log.Fatalf("submit %d: %v", i, err)
			}
			if err := job.Wait(context.Background()); err != nil {
				log.Fatalf("submit %d: %v", i, err)
			}
			fmt.Printf("job %d returned C\n", job.Status().RemoteID)
			results[i] = c
		}(i)
	}
	wg.Wait()
	close(stopPoll)
	overlapped := <-sawBothRunning

	for i, got := range results {
		if d := got.MaxAbsDiff(references[i]); d != 0 {
			log.Fatalf("job %d: serviced C differs from in-process engine C by %g (want bitwise equal)", i+1, d)
		}
	}
	fmt.Println("both concurrent jobs bitwise-equal to the in-process engine ✓")

	st, err := fetchStats(daemon, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	var leases [][]int
	for _, j := range st.Jobs {
		fmt.Printf("job %d: %s on workers %v (%s, %.1fms)\n", j.ID, j.State, j.Workers, j.Algorithm, j.ElapsedMS)
		leases = append(leases, j.Workers)
	}
	disjoint := true
	seen := map[int]bool{}
	for _, lease := range leases {
		for _, w := range lease {
			if seen[w] {
				disjoint = false
			}
			seen[w] = true
		}
	}
	switch {
	case disjoint:
		// Disjoint leases are the concurrency proof: job 2 was planned on
		// the workers left over while job 1 held its lease.
		fmt.Println("concurrent leases disjoint ✓")
	case overlapped:
		// Shared workers while both jobs were observed running: isolation
		// is broken.
		log.Fatalf("concurrently running jobs shared a worker: %v", leases)
	default:
		// On a machine slow enough that job 1 finished before job 2 was
		// admitted, the service legitimately reuses the freed workers.
		fmt.Println("(jobs ran sequentially on this machine; lease reuse is expected)")
	}

	// The crashed worker's daemon never exited; a third job sees a healed
	// 4-worker fleet (the fleet re-dials before leasing).
	a, b, c := seededProduct(inst, q, 77)
	job, err := sess.Submit(context.Background(), a, b, c)
	if err != nil {
		log.Fatalf("post-crash job: %v", err)
	}
	if err := job.Wait(context.Background()); err != nil {
		log.Fatalf("post-crash job: %v", err)
	}
	if d := c.MaxAbsDiff(engineReference(inst, q, 77)); d != 0 {
		log.Fatalf("post-crash job %d: C differs by %g", job.Status().RemoteID, d)
	}
	fmt.Printf("job %d ran on the healed fleet, no worker process restarted ✓\n", job.Status().RemoteID)

	// Observability: the same daemon exposes /metrics, /healthz and pprof
	// behind an opt-in debug port (cmd/mmserve -debug-addr). Scrape it and
	// check the counters the jobs above just moved are really exported.
	scrapeDebugEndpoints(srv)
}

// scrapeDebugEndpoints brings up the obs debug mux, self-scrapes /healthz
// and /metrics, and fails loudly on a non-200 status or a missing metric
// family — the same check scripts/smoke-examples.sh keys on.
func scrapeDebugEndpoints(srv *serve.Server) {
	debugAddr, stopDebug, err := obs.ServeDebug("127.0.0.1:0", func() obs.Health {
		st := srv.Status()
		return obs.Health{OK: true, Payload: map[string]any{
			"component": "examples/serve", "version": obs.Version(),
			"queued": st.Queued, "running": st.Running,
		}}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stopDebug()

	resp, err := http.Get("http://" + debugAddr + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		log.Fatalf("/healthz returned %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != 200 {
		log.Fatalf("/metrics returned %d, want 200", resp.StatusCode)
	}
	for _, family := range []string{
		"mm_serve_jobs_submitted_total", // the three facade submissions
		"mm_serve_jobs_finished_total",  // ... all finished
		"mm_engine_chunks_total",        // chunks the daemon's leases dispatched
		"mm_net_sent_bytes_total",       // operand bytes that crossed the loopback wire
	} {
		if !strings.Contains(string(body), family) {
			log.Fatalf("/metrics is missing the %s family", family)
		}
	}
	fmt.Println("observability scrape OK: /healthz 200, /metrics families present ✓")
}

// seededProduct builds the A, B, C operands for one job.
func seededProduct(inst sched.Instance, q int, seed int64) (a, b, c *matrix.BlockMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a = matrix.NewBlockMatrix(inst.R, inst.T, q)
	b = matrix.NewBlockMatrix(inst.T, inst.S, q)
	c = matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return a, b, c
}

// engineReference computes the same product through the in-process engine —
// the bitwise oracle the serviced results must match.
func engineReference(inst sched.Instance, q int, seed int64) *matrix.BlockMatrix {
	a, b, c := seededProduct(inst, q, seed)
	pl := platform.Homogeneous(2, 1, 1, 60)
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Run(context.Background(), engine.Config{Workers: pl.P(), T: inst.T}, res.Plan(), a, b, c, nil); err != nil {
		log.Fatal(err)
	}
	return c
}

// fetchStats reads the daemon's service snapshot within timeout.
func fetchStats(daemon string, timeout time.Duration) (*serve.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return serve.FetchStatsContext(ctx, daemon)
}
