package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Backend abstracts where a plan's workers actually live: goroutines behind
// channels (this package's Run) or remote processes behind TCP connections
// (internal/net). Execute drives any Backend with identical buffer
// accounting, operation ordering, and C-accumulation, so the in-process and
// networked runtimes cannot drift apart.
//
// Reusable-backend contract: a successful Execute leaves every worker idle
// (each SendC is balanced by a RecvC, so no worker holds a chunk
// afterwards), and the executor keeps no state of its own between calls. A
// Backend whose workers outlive a plan — internal/net's Master over
// persistent worker sessions — may therefore be handed to any number of
// consecutive executions; internal/serve leases such backends across jobs
// without re-establishing the fleet. After a failed execution no such
// guarantee holds (workers may hold chunks, C may be partially updated):
// discard the backend's sessions, not just the error.
type Backend interface {
	// Workers is the number of addressable workers; plans may only reference
	// workers in [0, Workers).
	Workers() int
	// SendC delivers the current contents of chunk ch (cloned from C) to
	// worker w.
	SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error
	// SendAB delivers one installment: A panels a (ch.H×(k1-k0), row-major)
	// and B panels b ((k1-k0)×ch.W, row-major) for inner range [k0, k1).
	SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error
	// RecvC asks worker w to return its finished chunk, which must be ch, and
	// yields the ch.Blocks() updated C blocks in row-major order.
	RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error)
}

// CopyingBackend is optionally implemented by Backends whose SendC/SendAB
// copy their block payloads before returning (serializing transports like
// internal/net, which stage blocks onto the wire). For such backends the
// executor recycles its staging blocks and panel slices through a pool the
// moment a send returns, keeping the steady-state send path allocation-free.
// Backends that retain the pointers (the channel backend hands them straight
// to worker goroutines) must not implement this, or must report false.
type CopyingBackend interface {
	CopiesBlocks() bool
}

// ErrWorkerDown marks a backend operation that failed because the worker is
// gone (connection lost, heartbeat timeout). Execute reacts by re-queueing
// the worker's outstanding jobs onto survivors; any other backend error
// aborts the run.
var ErrWorkerDown = errors.New("worker down")

// stagePool recycles the staging blocks of all executions against copying
// backends. Package-level so consecutive runs (and concurrent dispatch
// goroutines) share one warm pool.
var stagePool matrix.BlockPool

// stager owns one dispatch path's staging state: scratch slices for panel
// gathering and chunk cloning, reused across operations when (and only when)
// the backend copies payloads before returning. One stager per goroutine —
// it is deliberately not synchronized. rec, when non-nil, receives one trace
// event per backend operation (the Recorder itself is concurrency-safe).
type stager struct {
	copies       bool
	cBuf, am, bm []*matrix.Block
	rec          *trace.Recorder
}

// stageChunk snapshots chunk ch of c. Against a copying backend the snapshot
// lives in pooled blocks and a reused slice; otherwise it is freshly
// allocated, because the backend will hold it for the whole job.
func (st *stager) stageChunk(c *matrix.BlockMatrix, ch matrix.Chunk) []*matrix.Block {
	if !st.copies {
		return cloneChunk(c, ch, nil, nil)
	}
	st.cBuf = cloneChunk(c, ch, &stagePool, st.cBuf[:0])
	return st.cBuf
}

// stagePanels gathers the A/B panels of installment [k0, k1), reusing the
// stager's slices against copying backends.
func (st *stager) stagePanels(a, b *matrix.BlockMatrix, ch matrix.Chunk, k0, k1 int) (am, bm []*matrix.Block) {
	if !st.copies {
		return gatherPanels(a, b, ch, k0, k1, nil, nil)
	}
	st.am, st.bm = gatherPanels(a, b, ch, k0, k1, st.am[:0], st.bm[:0])
	return st.am, st.bm
}

// abortErr folds a run's outcome with its context: once ctx is done, the
// caller's cancellation is the result — whatever secondary error the abort
// provoked on the way down (retired links, half-delivered installments) is
// kept as detail, and errors.Is(err, ctx.Err()) holds either way.
func abortErr(ctx context.Context, err error) error {
	ctxErr := ctx.Err()
	if ctxErr == nil {
		return err
	}
	if err == nil || errors.Is(err, ctxErr) {
		return fmt.Errorf("engine: run aborted: %w", ctxErr)
	}
	return fmt.Errorf("engine: run aborted: %w (abort surfaced as: %v)", ctxErr, err)
}

// Options selects what Execute does beyond plain demand-driven dispatch. The
// zero value (or a nil *Options) needs none of it.
type Options struct {
	// Tracker turns on adaptivity: it receives every observed transfer and
	// compute, and prices jobs whenever the executor re-plans — on a join, a
	// departure, or estimate drift. Seed it from the declared platform
	// (adapt.NewTracker, or a Tracker.View for lease-local indices). Leave it
	// a nil interface, not a typed nil pointer, when adaptivity is off.
	Tracker adapt.Estimator
	// Join delivers the indices of workers that become addressable mid-run
	// (the backend must already route to them — e.g. after Master.AddWorker).
	// Each join re-plans the queued jobs onto the grown fleet. Indices
	// already alive, out of the backend's range, or arriving after the run
	// completes are ignored; so is Join without a Tracker.
	Join <-chan int
	// DriftThreshold is the relative estimate movement (since the estimates
	// the current assignment was planned with) that triggers a re-plan.
	// 0 selects DefaultDriftThreshold; negative disables drift re-planning.
	DriftThreshold float64
	// OnReplan, when non-nil, observes every re-plan: reason is "join",
	// "depart" or "drift", and pending is the number of queued jobs that
	// were redistributed. Called with executor-internal locks held — it must
	// be fast, must not block, and must not call back into the executor.
	OnReplan func(reason string, pending int)
	// Redundancy turns on the k-of-n completion gate: planned replicas and
	// parity units, speculative copies claimed by idle workers, wire-cancel
	// of laggards, and parity decode. Its counters are filled in as the run
	// goes.
	Redundancy *Redundancy
}

// Elastic is Options under the former adaptive executor's name, kept only
// for svcbench/traced.go, which still spells it that way. New code uses
// Options.
type Elastic = Options

// DefaultDriftThreshold re-plans when some worker's estimated cost moved 50%
// from the value the current assignment was computed with — far past EWMA
// sample noise, well within "a co-tenant started competing for the node".
const DefaultDriftThreshold = 0.5

// unit is one dispatch: a plan job (job ≥ 0) run as its primary when ru is
// nil, or a planned redundant unit (a replica, or a parity unit with
// job < 0).
type unit struct {
	job int
	ru  *RedundantUnit
}

// flight is the unit a worker has in flight, tracked so the gate can
// wire-cancel laggards and a re-plan can count in-flight load.
type flight struct {
	unit
	ch       matrix.Chunk
	t0       time.Time
	active   bool
	counted  bool // a gate-claimed copy, counted in copies
	canceled bool
}

// wstate is one worker's share of the executor state: its queue of units
// not yet dispatched, its membership, and its flight, reused unit after
// unit.
type wstate struct {
	queue   []unit
	alive   bool
	retired bool // a departed worker; a stale join cannot resurrect it
	fl      flight
}

// executor is one Execute call's shared state: one mutex and condition
// variable over the per-worker queues, membership, and completion.
type executor struct {
	ctx     context.Context
	be      Backend
	raw     RawSender
	uc      UnitCanceler
	a, b, c *matrix.BlockMatrix
	jobs    []sim.PlanJob
	tr      adapt.Estimator
	red     *Redundancy
	opts    *Options
	drift   float64
	rec     *trace.Recorder
	wg      sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond
	ws        []*wstate
	nAlive    int
	cursor    int // round-robin re-queue position
	committed []bool
	pending   int
	err       error
	settled   chan struct{} // closed once every job committed or the run failed
	isSettled bool
	// sinceReplan counts job completions since the last re-plan; drift
	// re-plans wait for at least one completion per alive worker, so a slow
	// EWMA convergence cannot re-plan after every single job (no thrash).
	sinceReplan int

	// Gate state (Redundancy only).
	copies []int // concurrent gate-claimed copies per job (primaries exempt)
	groups map[int]*groupState
}

// Execute replays plan against real matrices through be: C ← C + A·B
// restricted to the chunks the plan covers. A is r×t, B t×s, C r×s blocks.
//
// The plan is validated up front (protocol, worker range, chunk geometry,
// panel ranges, pairwise-disjoint chunks), then every worker gets a queue of
// its plan jobs in plan order and a dispatch goroutine that runs them one at
// a time: chunk down, installments in order, result back — the paper's
// master rule, per worker. Transfers to distinct workers and all computes
// overlap; a one-port backend (Config.OnePort, MasterOptions.OnePort)
// serializes the transfers themselves. A worker that fails with
// ErrWorkerDown is retired and its unfinished jobs are re-queued on the
// survivors, round-robin. C is bitwise-identical whatever the interleaving:
// a chunk's result depends only on the master's snapshot of that chunk and
// its own installment sequence, chunks are disjoint, and every backend
// applies the same ascending-k kernel order.
//
// opts adds to that: a Tracker for live estimates and join/depart/drift
// re-planning (only which worker runs a job ever changes), and a Redundancy
// for the k-of-n gate. Cancelling ctx stops every dispatch goroutine at its
// next unit boundary and fails the run with an error wrapping ctx.Err(),
// also when the last result already landed. C may then be partially
// updated; see the Backend docs.
func Execute(ctx context.Context, t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend, opts *Options) error {
	if opts == nil {
		opts = &Options{}
	}
	jobs, err := validatePlan(t, plan, a, b, c, be)
	if err != nil {
		return err
	}
	nw := be.Workers()
	red := opts.Redundancy
	if red != nil {
		if err := validateRedundancy(red, jobs, nw, t, c); err != nil {
			return err
		}
	}
	if ctx.Err() != nil || len(jobs) == 0 {
		// Fail an already-dead context before any dispatch: no worker is
		// left holding a half-delivered job by a run that never had a chance.
		return abortErr(ctx, nil)
	}
	// Materialize the A and B blocks the run references, up front: dispatch
	// goroutines gather overlapping panels concurrently, and lazy
	// materialization inside the shared input grids would race.
	for _, j := range jobs {
		materializePanels(a, b, j.Chunk, j.Panels)
	}

	x := &executor{
		ctx: ctx, be: be, a: a, b: b, c: c, jobs: jobs,
		tr: opts.Tracker, red: red, opts: opts, drift: opts.DriftThreshold,
		rec:       trace.FromContext(ctx),
		committed: make([]bool, len(jobs)),
		pending:   len(jobs),
		settled:   make(chan struct{}),
	}
	x.cond = sync.NewCond(&x.mu)
	x.raw, _ = be.(RawSender)
	x.uc, _ = be.(UnitCanceler)
	if x.drift == 0 {
		x.drift = DefaultDriftThreshold
	}
	x.grow(nw - 1)
	for _, ws := range x.ws {
		ws.alive = true
	}
	x.nAlive = nw
	for ji, j := range jobs {
		x.ws[j.Worker].queue = append(x.ws[j.Worker].queue, unit{job: ji})
	}
	if red != nil {
		x.initGate()
	}
	if x.tr != nil {
		x.tr.Ensure(nw - 1)
		// The initial assignment is the plan's own; estimates are rebased to
		// it so drift measures movement since *this* assignment was chosen.
		x.tr.Rebase()
	}

	// Cancellation fails the run like a fatal error; every dispatch
	// goroutine stops at its next unit boundary.
	stopWatch := context.AfterFunc(ctx, func() {
		x.mu.Lock()
		x.failLocked(ctx.Err())
		x.mu.Unlock()
	})
	defer stopWatch()
	for w := 0; w < nw; w++ {
		x.spawn(w)
	}
	var join <-chan int
	if x.tr != nil {
		join = opts.Join
	}
	// Wait for the run to settle, folding joiners in as they arrive.
	for settled := false; !settled; {
		select {
		case w, ok := <-join:
			if !ok {
				join = nil
				continue
			}
			x.join(w)
		case <-x.settled:
			settled = true
		}
	}
	x.wg.Wait()
	x.mu.Lock() // a late cancel may still be recording its error
	defer x.mu.Unlock()
	return abortErr(ctx, x.err)
}

// grow extends the per-worker state so index w is valid. Caller holds x.mu
// (or has not shared x yet).
func (x *executor) grow(w int) {
	for len(x.ws) <= w {
		x.ws = append(x.ws, &wstate{})
	}
}

func (x *executor) spawn(w int) {
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		x.loop(w)
	}()
}

// join folds worker w, newly addressable on the backend, into the run.
// Membership changes happen under x.mu like everything else, so a join
// racing the final completion is either folded in (and finds no queued
// work) or ignored.
func (x *executor) join(w int) {
	if w < 0 || w >= x.be.Workers() {
		return
	}
	x.tr.Ensure(w)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.grow(w)
	if ws := x.ws[w]; !ws.alive && !ws.retired && x.pending > 0 && x.err == nil {
		ws.alive = true
		x.nAlive++
		x.replanLocked("join", nil)
		x.spawn(w)
		x.wakeLocked()
	}
}

func (x *executor) failLocked(err error) {
	if x.err == nil {
		x.err = err
	}
	x.wakeLocked()
}

// wakeLocked wakes every parked dispatch goroutine and, once the run has
// settled (every job committed, or a failure recorded), Execute itself.
func (x *executor) wakeLocked() {
	x.cond.Broadcast()
	if (x.pending == 0 || x.err != nil) && !x.isSettled {
		x.isSettled = true
		close(x.settled)
	}
}

// loop is worker w's dispatch goroutine: it takes units until the run
// settles or w is retired. A worker with nothing to do parks on the
// condition variable — a re-queue, re-plan or claimable copy may wake it.
func (x *executor) loop(w int) {
	cp, ok := x.be.(CopyingBackend)
	st := &stager{copies: ok && cp.CopiesBlocks(), rec: x.rec}
	for {
		u, cBlocks, ok := x.next(w, st)
		if !ok {
			return
		}
		if cBlocks == nil {
			cBlocks = st.stageChunk(x.c, x.jobs[u.job].Chunk)
		}
		blocks, err := x.runUnit(w, u, st, cBlocks)
		if !x.finish(w, blocks, err) {
			return
		}
	}
}

// next hands worker w its next unit and registers it in flight. Under the
// gate the C snapshot is staged here, under the lock, because another copy
// of the job may commit concurrently; otherwise chunks are only written by
// their own job and the caller stages outside the lock. It reports false
// once w is done.
func (x *executor) next(w int, st *stager) (unit, []*matrix.Block, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ws := x.ws[w]
	for x.pending > 0 && x.err == nil && ws.alive {
		var u unit
		counted := false
		switch {
		case len(ws.queue) > 0:
			u = ws.queue[0]
			ws.queue = ws.queue[1:]
			if x.red != nil {
				var ok bool
				if counted, ok = x.admitLocked(u); !ok {
					continue
				}
			}
		case x.red != nil:
			before := x.pending
			ji := x.claimLocked()
			if ji < 0 {
				if x.pending == before && x.err == nil {
					x.cond.Wait() // only park if the decode sweep made no progress
				}
				continue
			}
			u, counted = unit{job: ji}, true
		default:
			x.cond.Wait()
			continue
		}
		fl := &ws.fl
		*fl = flight{unit: u, t0: time.Now(), active: true, counted: counted}
		var cBlocks []*matrix.Block
		switch {
		case u.job < 0:
			fl.ch, cBlocks = u.ru.Chunk, u.ru.CSeed
			if !st.copies {
				cBlocks = cloneBlocks(cBlocks) // the worker mutates what it holds
			}
		case x.red != nil:
			fl.ch = x.jobs[u.job].Chunk
			cBlocks = st.stageChunk(x.c, fl.ch)
		default:
			fl.ch = x.jobs[u.job].Chunk
		}
		return u, cBlocks, true
	}
	return unit{}, nil, false
}

// runUnit ships one unit to worker w — its C payload, every installment,
// then the flush — and returns the worker's result. Each completed operation
// feeds the latency histograms, the trace and, when adaptive, the tracker;
// the unit's residual wall time (total minus observed transfers) is
// attributed to compute. That split is approximate — a backend may absorb
// compute backpressure inside a send — but the sum tracks the job's true
// wall cost, which is what re-planning compares workers by.
func (x *executor) runUnit(w int, u unit, st *stager, cBlocks []*matrix.Block) ([]*matrix.Block, error) {
	mChunks.Inc()
	parity := u.job < 0
	sendAB, recvC := x.be.SendAB, x.be.RecvC
	var ch matrix.Chunk
	var panels [][2]int
	if parity {
		ch, panels = u.ru.Chunk, u.ru.Panels
		if x.raw != nil {
			sendAB, recvC = x.raw.SendABRaw, x.raw.RecvCRaw
		}
	} else {
		ch, panels = x.jobs[u.job].Chunk, x.jobs[u.job].Panels
	}
	start := time.Now()
	err := x.be.SendC(w, ch, cBlocks)
	if !parity && st.copies {
		stagePool.PutAll(cBlocks) // parity seeds are re-dispatchable
	}
	if err != nil {
		return nil, err
	}
	transfer := x.sent(w, st, trace.SendC, ch.Blocks(), start)
	var updates int64
	for pi, p := range panels {
		var am, bm []*matrix.Block
		if parity {
			am = u.ru.ASeeds[pi]
			_, bm = gatherPanels(nil, x.b, ch, p[0], p[1], nil, nil)
		} else {
			am, bm = st.stagePanels(x.a, x.b, ch, p[0], p[1])
		}
		t0 := time.Now()
		if err := sendAB(w, ch, p[0], p[1], am, bm); err != nil {
			return nil, err
		}
		transfer += x.sent(w, st, trace.SendAB, len(am)+len(bm), t0)
		updates += int64(p[1]-p[0]) * int64(ch.H) * int64(ch.W)
	}
	// The return transfer rides inside the RecvC wait; it is charged to the
	// compute share below rather than invented out of thin air.
	t0 := time.Now()
	result, err := recvC(w, ch)
	if err != nil {
		return nil, err
	}
	end := time.Now()
	st.observe(w, trace.RecvC, ch.Blocks(), t0, end)
	if compute := end.Sub(start) - transfer; x.tr != nil && compute > 0 {
		x.tr.ObserveCompute(w, updates, compute)
	}
	return result, nil
}

// sent records one completed send that began at t0 and returns its
// duration.
func (x *executor) sent(w int, st *stager, kind trace.Kind, blocks int, t0 time.Time) time.Duration {
	end := time.Now()
	st.observe(w, kind, blocks, t0, end)
	d := end.Sub(t0)
	if x.tr != nil {
		x.tr.ObserveTransfer(w, blocks, d)
	}
	return d
}

// finish settles worker w's unit: a result is committed, an abandoned copy
// is counted as absorbed straggler time, a lost worker is retired with its
// jobs re-queued, and anything else fails the run. It reports whether w's
// dispatch goroutine carries on.
func (x *executor) finish(w int, blocks []*matrix.Block, err error) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	fl := &x.ws[w].fl
	fl.active = false
	if x.red != nil {
		if fl.counted {
			x.copies[fl.job]--
		}
		x.wakeLocked() // parked speculators key off the in-flight set
	}
	switch {
	case err == nil:
		if fl.job < 0 {
			err = x.commitParityLocked(fl.ru, blocks)
		} else {
			err = x.commitJobLocked(fl.job, blocks)
		}
		if err != nil {
			x.failLocked(err)
		}
		return x.err == nil
	case x.red != nil && (fl.canceled || errors.Is(err, ErrUnitCanceled)):
		// Absorbed straggler (or laggard): record how long the unit had been
		// in flight when the gate gave up on it. A clean cancel handshake
		// keeps the link; one that had to retire it ends this worker.
		x.red.bump(func(st *RedundancyStats) { st.Absorbed++ })
		hStragglerAbsorbed.Observe(time.Since(fl.t0))
		if !errors.Is(err, ErrWorkerDown) {
			return true
		}
		x.retireLocked(w)
		return false
	case errors.Is(err, ErrWorkerDown) && x.ctx.Err() == nil:
		mFailovers.Inc()
		x.retireLocked(w)
		return false
	default:
		x.failLocked(err)
		return false
	}
}

// retireLocked takes w out of the run and re-queues its unfinished primaries
// (the one it lost in flight, then its queue) on the survivors — failover is
// just the extreme end of adaptation. Planned redundant units in w's queue
// are dropped: the gate's speculation covers whatever they would have.
func (x *executor) retireLocked(w int) {
	ws := x.ws[w]
	ws.alive, ws.retired = false, true
	x.nAlive--
	var lost []int
	if fl := ws.fl; fl.ru == nil && !fl.counted && !x.committed[fl.job] {
		lost = append(lost, fl.job)
	}
	for _, u := range ws.queue {
		if u.ru == nil && !x.committed[u.job] {
			lost = append(lost, u.job)
		}
	}
	ws.queue = nil
	mReplays.Add(int64(len(lost)))
	switch {
	case x.nAlive == 0:
		if x.pending > 0 {
			x.failLocked(fmt.Errorf("engine: no workers left to run %d pending chunks: %w", x.pending, ErrWorkerDown))
		}
	case x.tr != nil:
		x.replanLocked("depart", lost)
	default:
		for _, ji := range lost {
			for !x.ws[x.cursor%len(x.ws)].alive {
				x.cursor++
			}
			ws := x.ws[x.cursor%len(x.ws)]
			ws.queue = append(ws.queue, unit{job: ji})
			x.cursor++
		}
	}
	x.wakeLocked()
}

// replanLocked redistributes every queued primary over the alive workers by
// greedy earliest-finish on the live estimates, with extra (jobs recovered
// from a departing worker) folded in. In-flight units stay where they are
// and count as load; queued redundant units keep their workers and run after
// the primaries.
func (x *executor) replanLocked(reason string, extra []int) {
	pending := append([]int(nil), extra...)
	var workers []int
	for w, ws := range x.ws {
		if !ws.alive {
			continue
		}
		workers = append(workers, w)
		var keep []unit
		for _, u := range ws.queue {
			if u.ru == nil {
				pending = append(pending, u.job)
			} else {
				keep = append(keep, u)
			}
		}
		ws.queue = keep
	}
	items := make([]adapt.Item, len(pending))
	for i, ji := range pending {
		items[i] = x.item(ji)
	}
	load := make(map[int]float64, len(workers))
	for w, ws := range x.ws {
		if fl := ws.fl; fl.active && fl.job >= 0 {
			it := x.item(fl.job)
			load[w] = x.tr.JobCost(w, it.Blocks, it.Updates)
		}
	}
	for w, list := range adapt.Balance(items, workers, x.tr, load) {
		ws := x.ws[w]
		q := make([]unit, 0, len(list)+len(ws.queue))
		for _, ji := range list {
			q = append(q, unit{job: ji})
		}
		ws.queue = append(q, ws.queue...)
	}
	x.sinceReplan = 0
	mReplans.Inc()
	// Rebase so drift is measured against the estimates this assignment was
	// computed with — the re-plan consumed the drift it reacted to.
	x.tr.Rebase()
	if x.opts.OnReplan != nil {
		x.opts.OnReplan(reason, len(pending))
	}
	x.wakeLocked()
}

// item prices job ji for re-planning: blocks moved over the job's whole life
// (chunk down, installments, chunk back) and block updates performed.
func (x *executor) item(ji int) adapt.Item {
	j := x.jobs[ji]
	it := adapt.Item{ID: ji, Blocks: 2 * j.Chunk.Blocks()}
	for _, p := range j.Panels {
		it.Blocks += (p[1] - p[0]) * (j.Chunk.H + j.Chunk.W)
		it.Updates += int64(p[1]-p[0]) * int64(j.Chunk.H) * int64(j.Chunk.W)
	}
	return it
}

// commitJobLocked lands one job result: the first copy wins and is written
// into C, later copies are counted as duplicate wins and dropped. Returns an
// error only on a malformed result.
func (x *executor) commitJobLocked(ji int, blocks []*matrix.Block) error {
	if x.committed[ji] {
		x.red.wasted(blocks)
		return nil
	}
	if err := writeChunk(x.c, x.jobs[ji].Chunk, blocks); err != nil {
		return err
	}
	x.committed[ji] = true
	x.pending--
	x.sinceReplan++
	if x.red != nil {
		x.cancelLosersLocked()
		x.tryDecodeAllLocked()
	}
	if x.tr != nil && x.pending > 0 && x.drift > 0 && x.sinceReplan >= x.nAlive && x.tr.Drift() > x.drift {
		x.replanLocked("drift", nil)
	}
	// Without the gate a commit changes nothing a parked worker waits on,
	// unless it was the last one.
	if x.red != nil || x.pending == 0 {
		x.wakeLocked()
	}
	return nil
}

// validatePlan performs the shape, protocol, worker-range, chunk-geometry,
// panel-range and disjointness checks, returning the plan's jobs.
// Disjointness is what lets completed chunks be written back to C
// concurrently (and it is implied by any plan that computes the product
// correctly, since a block covered twice would accumulate its initial C
// contribution twice).
func validatePlan(t int, plan []sim.PlanOp, a, b, c *matrix.BlockMatrix, be Backend) ([]sim.PlanJob, error) {
	if a.Rows != c.Rows || b.Cols != c.Cols || a.Cols != b.Rows || a.Cols != t {
		return nil, fmt.Errorf("engine: shape mismatch A %dx%d, B %dx%d, C %dx%d, t=%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols, t)
	}
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		return nil, err
	}
	nw := be.Workers()
	covered := make([]bool, c.Rows*c.Cols)
	for _, j := range jobs {
		if j.Worker >= nw {
			return nil, fmt.Errorf("engine: plan references worker %d of %d", j.Worker, nw)
		}
		if err := checkJob(j.Chunk, j.Panels, t, c); err != nil {
			return nil, fmt.Errorf("engine: plan %w", err)
		}
		ch := j.Chunk
		for i := ch.Row0; i < ch.Row0+ch.H; i++ {
			for k := ch.Col0; k < ch.Col0+ch.W; k++ {
				if covered[i*c.Cols+k] {
					return nil, fmt.Errorf("engine: plan chunks overlap at C block (%d,%d); the executor requires disjoint chunks", i, k)
				}
				covered[i*c.Cols+k] = true
			}
		}
	}
	return jobs, nil
}

// checkJob verifies a chunk lies inside C and its installments inside [0, t).
func checkJob(ch matrix.Chunk, panels [][2]int, t int, c *matrix.BlockMatrix) error {
	if !ch.Valid(c.Rows, c.Cols) {
		return fmt.Errorf("chunk %v outside C (%dx%d)", ch, c.Rows, c.Cols)
	}
	for _, p := range panels {
		if p[0] < 0 || p[1] > t || p[0] >= p[1] {
			return fmt.Errorf("installment panels [%d,%d) outside t=%d", p[0], p[1], t)
		}
	}
	return nil
}

// materializePanels forces allocation of the A/B blocks chunk ch's
// installments touch (a may be nil to skip its side).
func materializePanels(a, b *matrix.BlockMatrix, ch matrix.Chunk, panels [][2]int) {
	for _, p := range panels {
		for k := p[0]; k < p[1]; k++ {
			for i := ch.Row0; a != nil && i < ch.Row0+ch.H; i++ {
				a.Block(i, k)
			}
			for j := ch.Col0; j < ch.Col0+ch.W; j++ {
				b.Block(k, j)
			}
		}
	}
}

// cloneChunk snapshots chunk ch of c in row-major order into dst (grown as
// needed; pass nil for a fresh slice). With a pool, the snapshot blocks are
// recycled ones — the caller owns them and decides when to Put them back.
func cloneChunk(c *matrix.BlockMatrix, ch matrix.Chunk, pool *matrix.BlockPool, dst []*matrix.Block) []*matrix.Block {
	if dst == nil {
		dst = make([]*matrix.Block, 0, ch.Blocks())
	}
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			src := c.Block(i, j)
			if pool == nil {
				dst = append(dst, src.Clone())
				continue
			}
			blk := pool.Get(c.Q)
			copy(blk.Data, src.Data)
			dst = append(dst, blk)
		}
	}
	return dst
}

// gatherPanels collects the A panels (ch.H×d, row-major) and B panels
// (d×ch.W, row-major) of installment [k0, k1) for chunk ch, appending to
// amDst and bmDst (pass nil for fresh slices). The returned entries alias
// the input matrices' blocks; only the slice headers are staged. A nil a
// gathers the B side only.
func gatherPanels(a, b *matrix.BlockMatrix, ch matrix.Chunk, k0, k1 int, amDst, bmDst []*matrix.Block) (am, bm []*matrix.Block) {
	d := k1 - k0
	if amDst == nil && a != nil {
		amDst = make([]*matrix.Block, 0, ch.H*d)
	}
	if bmDst == nil {
		bmDst = make([]*matrix.Block, 0, d*ch.W)
	}
	for i := ch.Row0; a != nil && i < ch.Row0+ch.H; i++ {
		for k := k0; k < k1; k++ {
			amDst = append(amDst, a.Block(i, k))
		}
	}
	for k := k0; k < k1; k++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			bmDst = append(bmDst, b.Block(k, j))
		}
	}
	return amDst, bmDst
}

// writeChunk stores a returned chunk's blocks back into c.
func writeChunk(c *matrix.BlockMatrix, ch matrix.Chunk, blocks []*matrix.Block) error {
	if len(blocks) != ch.Blocks() {
		return fmt.Errorf("engine: result for %v has %d blocks, want %d", ch, len(blocks), ch.Blocks())
	}
	for _, blk := range blocks {
		if blk == nil || blk.Q != c.Q {
			return fmt.Errorf("engine: result for %v carries a block with edge mismatch", ch)
		}
	}
	idx := 0
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			c.SetBlock(i, j, blocks[idx])
			idx++
		}
	}
	return nil
}

// ApplyInstallmentParallel performs the block updates one installment
// enables on a held chunk, across up to procs goroutines: cb (ch.H×ch.W,
// row-major) accumulates ab·bb where ab is ch.H×d and bb d×ch.W, d = k1-k0
// panels deep. Both the goroutine worker and the networked worker apply
// installments through this one function, so every backend performs
// bitwise-identical arithmetic. Each C block (i,j) of the chunk is owned by
// exactly one goroutine, which applies that block's d panel updates in
// ascending-k order — no two goroutines touch the same block and the
// per-block floating-point order is exactly the sequential one, so the
// result is bitwise-identical for every procs value. procs ≤ 1 runs inline.
func ApplyInstallmentParallel(ch matrix.Chunk, cb, ab, bb []*matrix.Block, d, procs int) error {
	if d <= 0 || len(cb) != ch.H*ch.W || len(ab) != ch.H*d || len(bb) != d*ch.W {
		return fmt.Errorf("engine: installment shape mismatch: chunk %v, d=%d, |c|=%d |a|=%d |b|=%d",
			ch, d, len(cb), len(ab), len(bb))
	}
	blocks := ch.H * ch.W
	if procs > blocks {
		procs = blocks
	}
	if procs <= 1 {
		applyBlockRange(ch, cb, ab, bb, d, 0, blocks, 1)
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			applyBlockRange(ch, cb, ab, bb, d, g, blocks, procs)
		}(g)
	}
	wg.Wait()
	return nil
}

// applyBlockRange updates C blocks start, start+stride, … of the chunk, each
// through its full ascending-k panel sequence.
func applyBlockRange(ch matrix.Chunk, cb, ab, bb []*matrix.Block, d, start, blocks, stride int) {
	for idx := start; idx < blocks; idx += stride {
		i, j := idx/ch.W, idx%ch.W
		cij := cb[idx]
		for dk := 0; dk < d; dk++ {
			matrix.MulAdd(cij, ab[i*d+dk], bb[dk*ch.W+j])
		}
	}
}
