package main

import (
	"context"
	"fmt"
	stdnet "net"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	mmnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/matmul"
)

// fleetSpecs are the declared c:w:m specs of the four workers. They differ
// only in memory m, as in the paper's heterogeneous-memory experiments, so
// the overlapped-layout chunk edge μ (μ²+4μ ≤ m) is 6, 4, 3 and 2: selection
// and chunk sizing have a real choice to make while every worker runs the
// same kernel on the same CPUs.
var fleetSpecs = []platform.Worker{
	{C: 1, W: 1, M: 60},
	{C: 1, W: 1, M: 32},
	{C: 1, W: 1, M: 21},
	{C: 1, W: 1, M: 12},
}

// cacheBudget is each worker's panel cache budget. mmworker's default is
// 256 MiB per process; four workers sharing one process with the daemon and
// the clients get 16 MiB each, which keeps the benchmark's memory small and
// lets set-up fill every cache to its steady state (full and evicting)
// within a few seconds.
const cacheBudget = 16 << 20

// workers is the in-process stand-in for four mmworker daemons, each with
// mmworker's default options except the cache budget above: a panel cache
// shared across sessions and Procs = NumCPU. Workers outlive fleets, so a
// traced replay can dial the same daemons (and their warm caches) after the
// server is gone.
type workers struct {
	lns   []stdnet.Listener
	addrs []string
	wg    sync.WaitGroup
}

func startWorkers() (*workers, error) {
	w := &workers{}
	for range fleetSpecs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		addr := ln.Addr().String()
		w.lns = append(w.lns, ln)
		w.addrs = append(w.addrs, addr)
		opts := mmnet.WorkerOptions{
			Heartbeat:   500 * time.Millisecond,
			IdleTimeout: 2 * time.Minute,
			Procs:       runtime.NumCPU(),
			Cache:       cache.NewPanelCache(cacheBudget),
			Logger:      obs.NopLogger(),
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			_ = mmnet.Serve(ln, addr, opts) // returns once the listener closes
		}()
	}
	return w, nil
}

// stop closes the listeners and waits for the serve loops. A serve loop only
// sees the closed listener after its current session ends, so fleets must be
// closed (their sessions released) first.
func (w *workers) stop() {
	for _, ln := range w.lns {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { w.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
}

func newFleet(w *workers) (*serve.Fleet, error) {
	return serve.NewFleet(w.addrs, fleetSpecs, serve.FleetOptions{Keepalive: 15 * time.Second, Logger: obs.NopLogger()})
}

// deployment is one loopback mmserve stack over a set of workers: a fleet
// and a serve.Server with mmserve's default configuration (Het, adaptive,
// panel cache on, fifo). With clients > 0 the daemon also listens for the
// client protocol and that many Remote sessions are open against it.
type deployment struct {
	fleet    *serve.Fleet
	srv      *serve.Server
	ln       stdnet.Listener
	served   chan struct{}
	sessions []*matmul.Session
}

func deploy(w *workers, clients int) (*deployment, error) {
	fleet, err := newFleet(w)
	if err != nil {
		return nil, err
	}
	d := &deployment{fleet: fleet}
	d.srv = serve.NewServer(fleet, serve.Config{
		Scheduler:   sched.Het{},
		Adaptive:    true,
		QueuePolicy: serve.PolicyFIFO,
		Logger:      obs.NopLogger(),
	})
	if clients == 0 {
		return d, nil
	}
	d.ln, err = stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.srv.ListenAndServe(d.ln) // returns once the listener closes
	}()
	for i := 0; i < clients; i++ {
		s, err := matmul.Open(context.Background(), matmul.WithRuntime(matmul.Remote(d.ln.Addr().String())))
		if err != nil {
			d.close()
			return nil, err
		}
		d.sessions = append(d.sessions, s)
	}
	return d, nil
}

// close stops the client side, the daemon and the fleet; the workers keep
// running for the caller.
func (d *deployment) close() {
	for _, s := range d.sessions {
		s.Close()
	}
	if d.ln != nil {
		d.ln.Close()
		<-d.served
	}
	d.srv.Close()
	d.fleet.Close()
}
