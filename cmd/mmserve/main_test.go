package main

import (
	"context"
	stdnet "net"
	"strings"
	"testing"
	"time"

	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
)

// TestDaemonSubmitStatus drives the whole CLI surface on loopback: a
// 2-worker fleet, the daemon loop, one seeded client submission (with its
// local verification), and a status query.
func TestDaemonSubmitStatus(t *testing.T) {
	var workerAddrs []string
	for i := 0; i < 2; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		workerAddrs = append(workerAddrs, ln.Addr().String())
		go mmnet.Serve(ln, ln.Addr().String(), mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond})
	}

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	o := options{
		workers:   strings.Join(workerAddrs, ","),
		specs:     "1:1:60,1.5:1.2:40",
		alg:       "Het",
		keepalive: 200 * time.Millisecond,
		cache:     true, // cacheless workers: the daemon's have/need handshake must fall back cleanly
		quiet:     true,
	}
	go daemon(context.Background(), ln, o)

	client := options{
		addr: ln.Addr().String(),
		inst: sched.Instance{R: 4, S: 6, T: 3},
		q:    4, seed: 11, timeout: time.Minute, verify: true,
	}
	if err := runSubmit(context.Background(), client); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := runStatus(context.Background(), client); err != nil {
		t.Fatalf("status: %v", err)
	}
	st, err := serve.FetchStatsContext(t.Context(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 {
		t.Errorf("done = %d, want 1", st.Done)
	}
}

// TestParseSpecs covers the c:w:m parser.
func TestParseSpecs(t *testing.T) {
	ws, err := parseSpecs("", 3)
	if err != nil || len(ws) != 3 {
		t.Fatalf("default specs: %v %v", ws, err)
	}
	ws, err = parseSpecs("1:2:30, 2:1:60", 2)
	if err != nil || ws[1].C != 2 || ws[0].M != 30 {
		t.Fatalf("parsed %v, err %v", ws, err)
	}
	if _, err := parseSpecs("1:2", 1); err == nil {
		t.Error("malformed spec accepted")
	}
	if _, err := parseSpecs("1:2:30", 2); err == nil {
		t.Error("count mismatch accepted")
	}
}

// TestAdaptiveDaemonJoinAndEstimates drives the elastic daemon surface: an
// adaptive daemon over one worker, a second worker joining after startup
// (the mmworker -join wire path), a submission on the grown fleet, and a
// status snapshot carrying live measured estimates.
func TestAdaptiveDaemonJoinAndEstimates(t *testing.T) {
	var workerAddrs []string
	for i := 0; i < 2; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		workerAddrs = append(workerAddrs, ln.Addr().String())
		go mmnet.Serve(ln, ln.Addr().String(), mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond})
	}

	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	o := options{
		workers:   workerAddrs[0],
		alg:       "Het",
		keepalive: 200 * time.Millisecond,
		adaptive:  true,
		quiet:     true,
	}
	go daemon(context.Background(), ln, o)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := serve.JoinFleet(ctx, ln.Addr().String(), workerAddrs[1], platform.Worker{C: 1, W: 1, M: 60}); err != nil {
		t.Fatalf("join: %v", err)
	}

	client := options{
		addr: ln.Addr().String(),
		inst: sched.Instance{R: 6, S: 9, T: 4},
		q:    4, seed: 3, timeout: time.Minute, verify: true,
	}
	if err := runSubmit(context.Background(), client); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := runStatus(context.Background(), client); err != nil {
		t.Fatalf("status: %v", err)
	}
	st, err := serve.FetchStatsContext(t.Context(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Adaptive {
		t.Error("daemon does not report adaptive scheduling")
	}
	if len(st.Workers) != 2 {
		t.Fatalf("fleet size %d after join, want 2", len(st.Workers))
	}
	sampled := 0
	for _, w := range st.Workers {
		if w.Samples > 0 {
			sampled++
		}
	}
	if sampled == 0 {
		t.Error("no live estimates after a completed job on an adaptive daemon")
	}
}
