// Package engine executes a scheduled plan for real: master and workers
// exchange actual matrix blocks, workers perform genuine floating-point block
// updates, and the master replays the chunks, installments and results a
// scheduler produced (the Plan recorded by internal/sim).
//
// The package splits into two layers. Execute is the one backend-agnostic
// plan executor, shared by every real runtime. It validates the plan, seeds
// one queue per worker from it, and drives each worker from its own dispatch
// goroutine through the paper's master rule: send the next chunk, its
// installments, then take the result back. Transfers to distinct workers and
// all computes overlap, and C is bitwise-identical under every interleaving.
// Workers that die have their jobs re-queued round-robin on the survivors.
// Options layers the rest on the same loop: a Tracker adds live estimates
// and join/depart/drift re-planning, a Redundancy adds the k-of-n gate
// (replicas, parity units, speculation, wire-cancel, decode).
//
// Run wires Execute to the in-process backend: workers are goroutines behind
// channels, and each worker's input channel provides one buffered slot so
// communication to a worker overlaps that worker's computation, exactly the
// double-buffering of the μ²+4μ layout. Optionally each transfer is paced at
// the platform's c_i per block so heterogeneous links are felt in wall-clock
// time, and Config.OnePort serializes those paced slots through one port
// lock, recovering the paper's one-port master. internal/net wires
// the same executor to remote workers over TCP.
//
// Its purpose is verification: after Run, C must equal the reference product,
// proving the scheduler moved every block where it claimed and no update was
// lost — something the pure simulator cannot establish.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config controls a real execution.
type Config struct {
	Workers int // number of workers referenced by the plan
	T       int // inner block dimension of the product
	// Platform, when non-nil together with TimePerUnit, paces transfers:
	// sending X blocks to worker i sleeps X·c_i·TimePerUnit. Leave
	// TimePerUnit zero for full-speed verification runs.
	Platform    *platform.Platform
	TimePerUnit time.Duration
	// OnePort, with pacing, serializes the paced transfer slots across
	// workers through one port lock, restoring the paper's one-port master:
	// overlap of transfer and compute, but never of two transfers. Without
	// pacing the port is idle and costs nothing.
	OnePort bool
	// Procs bounds the goroutines each in-process worker spends on one
	// installment (its C blocks are split across them; per-block arithmetic
	// order is unchanged). ≤1 means sequential — the right default when
	// several goroutine workers already share the process.
	Procs int
}

// workerMsg is one master→worker message: a chunk (blocks, row-major H×W),
// an installment (a H×d and b d×W panels, row-major), or a flush asking for
// the current chunk back. Workers answer flushes with a chunk message.
type workerMsg struct {
	kind   trace.Kind
	chunk  matrix.Chunk
	blocks []*matrix.Block
	a, b   []*matrix.Block
	d      int
}

// chanBackend is the in-process Backend: one goroutine per worker, channels
// as links. Its sends only fail when the run's context is cancelled, so
// Execute's failover path is inert here.
type chanBackend struct {
	cfg Config
	ctx context.Context // the run's context; aborts paced transfers and waits
	// port is the one-port master's single port: with Config.OnePort,
	// dispatch goroutines hold it only while a paced transfer occupies the
	// link, never while waiting on a worker's compute.
	port sync.Mutex
	in   []chan workerMsg
	out  []chan workerMsg
}

func (cb *chanBackend) Workers() int { return len(cb.in) }

// pace charges one transfer slot: it occupies the master's port (when
// one-port) for the blocks' modeled link time. A cancelled run context
// aborts the slot mid-sleep, so cancellation latency is bounded by one
// select, not by the remaining modeled transfer time.
func (cb *chanBackend) pace(w, blocks int) error {
	if cb.cfg.Platform == nil || cb.cfg.TimePerUnit <= 0 {
		return cb.ctx.Err()
	}
	if cb.cfg.OnePort {
		cb.port.Lock()
		defer cb.port.Unlock()
	}
	d := time.Duration(float64(blocks) * cb.cfg.Platform.Workers[w].C * float64(cb.cfg.TimePerUnit))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-cb.ctx.Done():
		return fmt.Errorf("engine: transfer to worker P%d aborted: %w", w+1, cb.ctx.Err())
	}
}

// deliver hands one message to worker w, giving up when the run's context is
// cancelled (the worker may be stalled on a full input slot it will never
// drain in time).
func (cb *chanBackend) deliver(w int, msg workerMsg) error {
	select {
	case cb.in[w] <- msg:
		return nil
	case <-cb.ctx.Done():
		return fmt.Errorf("engine: send to worker P%d aborted: %w", w+1, cb.ctx.Err())
	}
}

func (cb *chanBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	if err := cb.pace(w, ch.Blocks()); err != nil {
		return err
	}
	return cb.deliver(w, workerMsg{kind: trace.SendC, chunk: ch, blocks: blocks})
}

func (cb *chanBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	if err := cb.pace(w, (k1-k0)*(ch.H+ch.W)); err != nil {
		return err
	}
	return cb.deliver(w, workerMsg{kind: trace.SendAB, a: a, b: b, d: k1 - k0})
}

func (cb *chanBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	if err := cb.deliver(w, workerMsg{kind: trace.RecvC}); err != nil {
		return nil, err
	}
	var done workerMsg
	select {
	case done = <-cb.out[w]:
	case <-cb.ctx.Done():
		// The worker's answer lands in its buffered out slot instead; the
		// worker never blocks on an abandoned flush.
		return nil, fmt.Errorf("engine: result from worker P%d abandoned: %w", w+1, cb.ctx.Err())
	}
	if done.chunk != ch {
		return nil, fmt.Errorf("engine: worker P%d returned chunk %v, expected %v", w+1, done.chunk, ch)
	}
	// The return transfer is charged after the worker's answer is validated
	// and before the chunk is handed back: the link is busy between the
	// worker finishing and the master owning the data, and under a one-port
	// gate that slot — not the wait for compute — is what serializes against
	// other workers' transfers.
	if err := cb.pace(w, ch.Blocks()); err != nil {
		return nil, err
	}
	return done.blocks, nil
}

// Run executes plan through Execute on the in-process backend under opts
// (nil for plain dispatch): C ← C + A·B restricted to the chunks the plan
// covers (a correct plan covers all of C exactly once). A is r×t, B t×s, C
// r×s blocks. Cancelling ctx aborts dispatch, interrupts in-flight paced
// transfers, drains the worker goroutines, and returns an error wrapping
// ctx's error; an aborted run leaves C partially updated, the inputs
// untouched. The in-process fleet is fixed for the run — goroutine workers
// neither crash nor join — so a Tracker here means estimate tracking and
// drift re-planning only.
func Run(ctx context.Context, cfg Config, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, opts *Options) error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("engine: need a positive worker count")
	}
	if cfg.Platform != nil && cfg.Platform.P() < cfg.Workers {
		return fmt.Errorf("engine: plan references %d workers but platform has %d", cfg.Workers, cfg.Platform.P())
	}

	cb := &chanBackend{
		cfg: cfg,
		ctx: ctx,
		in:  make([]chan workerMsg, cfg.Workers),
		out: make([]chan workerMsg, cfg.Workers),
	}
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		// Capacity 1 gives each worker one buffered installment slot: the
		// master's send of step k+1 completes while step k computes. The out
		// slot is buffered too, so a worker answering a flush the master
		// abandoned (context cancelled mid-RecvC) never blocks and still
		// drains cleanly when its input channel closes.
		cb.in[w] = make(chan workerMsg, 1)
		cb.out[w] = make(chan workerMsg, 1)
		go worker(cb.in[w], cb.out[w], errs, cfg.Procs)
	}

	runErr := Execute(ctx, cfg.T, plan, a, b, c, cb, opts)

	for w := 0; w < cfg.Workers; w++ {
		close(cb.in[w])
	}
	for w := 0; w < cfg.Workers; w++ {
		if err := <-errs; err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}

// worker consumes chunk/installment/flush messages until its channel closes.
// It owns at most one chunk at a time and applies each installment's panels
// with the real block kernel. On a protocol violation it keeps answering
// flushes (with an empty chunk the master will reject) so the master never
// blocks forever, and reports the first error when the channel closes.
func worker(in <-chan workerMsg, out chan<- workerMsg, errs chan<- error, procs int) {
	var cur workerMsg // the held chunk; cur.blocks == nil when none
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	for msg := range in {
		switch msg.kind {
		case trace.SendC:
			if cur.blocks != nil {
				fail("engine: worker received a chunk while holding one")
				continue
			}
			cur = msg
		case trace.SendAB:
			if cur.blocks == nil || firstErr != nil {
				fail("engine: worker received inputs with no chunk")
				continue
			}
			if err := ApplyInstallmentParallel(cur.chunk, cur.blocks, msg.a, msg.b, msg.d, procs); err != nil {
				fail("%v", err)
			}
		case trace.RecvC:
			if cur.blocks == nil {
				fail("engine: flush with no chunk")
			}
			out <- cur // an empty answer on a violation; the master rejects it
			cur = workerMsg{}
		}
	}
	errs <- firstErr
}
