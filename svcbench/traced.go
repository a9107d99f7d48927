package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/adapt"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The traced replay runs a prefix of the workload's job list one job at a
// time through the daemon's public steps, in the daemon's order, with a span
// recorded here around each call:
//
//	cache.hash     cache.PanelsForJob (or the client digests of a shared-A job)
//	serve.select   Fleet.Idle, selection specs, affinity, serve.SelectResources
//	  sched.plan   the Het.Schedule call inside SelectResources (child span)
//	serve.lease    Fleet.Lease + Master.BeginJob
//	net.execute    Master.RunElasticContext
//	serve.return   residency absorb, Master.EndJob, Fleet.Return
//
// The top-level spans are consecutive, so they must sum to the job's wall
// time (ledger.coverage). Kernel and codec replays run after the job, outside
// the ledger: workers overlap compute with transfers, so those replays are
// reported as shares of net.execute and never added to it.

// coverageBound is the least share of a traced job's wall time the
// top-level spans must account for.
const coverageBound = 0.95

// traceWarmup traced jobs run first, unrecorded, so the fresh tracker's
// estimates settle as they do at set-up.
const traceWarmup = 4

// maxTraced bounds the recorded traced jobs per run.
const maxTraced = 400

// trackerUnit mirrors the daemon's: declared model units are milliseconds.
const trackerUnit = time.Millisecond

// timedScheduler is the Het scheduler with a span around each Schedule
// call, so plan time is split out of serve.SelectResources without running
// the plan twice.
type timedScheduler struct {
	sched.Het
	d      time.Duration
	allocs uint64
}

func (t *timedScheduler) Schedule(pl *platform.Platform, inst sched.Instance) (*sched.Result, error) {
	a0, t0 := heapAllocs(), time.Now()
	r, err := t.Het.Schedule(pl, inst)
	t.d, t.allocs = time.Since(t0), heapAllocs()-a0
	return r, err
}

type ledger struct {
	jobs, failed int
	// per traced job, milliseconds
	hash, sel, plan, lease, exec, ret, wall []float64
	planAllocs, makespanRatio               []float64
	// sums over traced jobs
	spanSum, wallSum                  float64 // seconds
	hashBytes, hashSecs               float64
	wireBytes, predBytes              float64
	kernelSecs, kernelFlops, execSecs float64
	kernelBytes                       float64
	encBytes, encSecs, decSecs        float64
}

type tracer struct {
	fleet   *serve.Fleet
	tracker *adapt.Tracker
	reg     *cache.Registry
	// replay scratch
	kc   *matrix.Block
	pool matrix.BlockPool
}

// replay runs the traced phase against a fresh fleet on the same workers
// for at most dur.
func replay(ctx context.Context, wk *workers, w *workload, jobs []load.Job, ops *operands, dur time.Duration) (*ledger, error) {
	fleet, err := newFleet(wk)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	tr := &tracer{fleet: fleet, tracker: adapt.NewTracker(fleet.Specs(), trackerUnit, 0), reg: cache.NewRegistry()}
	fleet.SetOnDown(func(i int) { tr.reg.Invalidate(i) })
	led := &ledger{}
	deadline := time.Now().Add(dur)
	for i := 0; i < traceWarmup+maxTraced && (i < traceWarmup+1 || time.Now().Before(deadline)); i++ {
		j := jobs[i%len(jobs)]
		s := ops.acquire(j)
		err := tr.job(ctx, s, j, led, i >= traceWarmup)
		ops.release(s)
		if err != nil {
			return nil, fmt.Errorf("traced job %d (%s): %w", i, j.Size, err)
		}
	}
	return led, nil
}

func wireTotal(s scrape) float64 {
	return s.sum("mm_net_sent_bytes_total") + s.sum("mm_net_recv_bytes_total")
}

// selectionSpecs is the daemon's view of the fleet on an adaptive server:
// declared specs, with measured costs wherever the tracker has observations.
func (tr *tracer) selectionSpecs() []platform.Worker {
	specs := tr.fleet.Specs()
	for i, e := range tr.tracker.Snapshot() {
		if i >= len(specs) {
			break
		}
		if e.Transfers > 0 && e.C > 0 {
			specs[i].C = e.C / trackerUnit.Seconds()
		}
		if e.Computes > 0 && e.W > 0 {
			specs[i].W = e.W / trackerUnit.Seconds()
		}
	}
	return specs
}

// job runs one traced job; record false runs it without recording. A job
// that fails or returns a wrong C is counted, not returned as an error;
// errors are the replay's own (no worker to lease).
func (tr *tracer) job(ctx context.Context, s *slot, j load.Job, led *ledger, record bool) error {
	wire0 := wireTotal(scrapeMetrics())

	t0 := time.Now()
	var jp *cache.JobPanels
	hashed := float64(j.Inst.S) * float64(cache.PanelDataBytes(j.Q, j.Inst.T))
	if s.shared {
		jp = s.clientDigests()
	} else {
		jp = cache.PanelsForJob(s.a, s.b)
		hashed += float64(j.Inst.R) * float64(cache.PanelDataBytes(j.Q, j.Inst.T))
	}

	t1 := time.Now()
	avail := tr.fleet.Idle()
	specs := tr.selectionSpecs()
	aff := make([]float64, len(specs))
	for _, i := range avail {
		aff[i] = tr.reg.Fraction(i, jp)
	}
	ts := &timedScheduler{}
	sel, err := serve.SelectResources(specs, avail, len(avail), j.Inst, ts, aff)
	if err != nil {
		return err
	}

	t2 := time.Now()
	m, err := tr.fleet.Lease(sel.Workers)
	if err != nil {
		return err
	}
	m.BeginJob(jp)
	view := tr.tracker.View(sel.Workers)

	t3 := time.Now()
	runErr := m.RunElasticContext(ctx, j.Inst.T, sel.Plan, s.a, s.b, s.c, &engine.Elastic{Tracker: view})

	t4 := time.Now()
	snap := m.ResidentSnapshot()
	queried := jp.Digests()
	m.EndJob()
	for k, wi := range sel.Workers {
		if k < len(snap) && snap[k] != nil {
			tr.reg.Absorb(wi, snap[k], queried)
		}
	}
	tr.fleet.Return(sel.Workers, m, runErr != nil)
	t5 := time.Now()

	ok := runErr == nil && s.check()
	if !record {
		if !ok {
			return fmt.Errorf("warm-up job failed or returned a wrong C: %v", runErr)
		}
		return nil
	}
	led.jobs++
	if !ok {
		led.failed++
		return nil
	}
	wire := wireTotal(scrapeMetrics()) - wire0
	spans := []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)}
	for _, d := range spans {
		led.spanSum += d.Seconds()
	}
	wall := t5.Sub(t0)
	led.wallSum += wall.Seconds()
	led.hash = append(led.hash, ms(spans[0]))
	led.sel = append(led.sel, ms(spans[1]-ts.d))
	led.plan = append(led.plan, ms(ts.d))
	led.planAllocs = append(led.planAllocs, float64(ts.allocs))
	led.lease = append(led.lease, ms(spans[2]))
	led.exec = append(led.exec, ms(spans[3]))
	led.ret = append(led.ret, ms(spans[4]))
	led.wall = append(led.wall, ms(wall))
	led.hashBytes += hashed
	led.hashSecs += spans[0].Seconds()
	led.execSecs += spans[3].Seconds()
	led.wireBytes += wire
	return tr.replays(s, j, sel, spans[3], led)
}

// replays times the job's own block updates on the active kernel and a
// BlockCodec round over the blocks its plan ships, then prices the plan with
// specs calibrated from both: c = codec seconds per block, w = kernel seconds
// per update, m as declared.
func (tr *tracer) replays(s *slot, j load.Job, sel *serve.Selection, exec time.Duration, led *ledger) error {
	q := j.Q
	if tr.kc == nil || tr.kc.Q != q {
		tr.kc = matrix.NewBlock(q)
	}
	updates := j.Inst.R * j.Inst.S * j.Inst.T
	k0 := time.Now()
	for i := 0; i < j.Inst.R; i++ {
		for jj := 0; jj < j.Inst.S; jj++ {
			copy(tr.kc.Data, s.c.PeekBlock(i, jj).Data)
			for k := 0; k < j.Inst.T; k++ {
				kernel.MulAdd(tr.kc.Data, s.a.PeekBlock(i, k).Data, s.b.PeekBlock(k, jj).Data, q)
			}
		}
	}
	kSecs := time.Since(k0).Seconds()
	qf := float64(q)
	led.kernelSecs += kSecs
	led.kernelFlops += 2 * float64(updates) * qf * qf * qf
	led.kernelBytes += float64(updates) * 4 * 8 * qf * qf // read A, B, C blocks, write C

	planJobs, _, err := sim.JobsFromPlan(sel.Plan)
	if err != nil {
		return err
	}
	blocks := 0
	for _, pj := range planJobs {
		blocks += 2 * pj.Chunk.Blocks()
		for _, p := range pj.Panels {
			blocks += (p[1] - p[0]) * (pj.Chunk.H + pj.Chunk.W)
		}
	}
	led.predBytes += float64(blocks * matrix.BlockWireSize(q))

	var enc matrix.BlockCodec
	e0 := time.Now()
	for b := 0; b < blocks; b++ {
		if err := enc.WriteBlock(io.Discard, s.a.PeekBlock(b%j.Inst.R, (b/j.Inst.R)%j.Inst.T)); err != nil {
			return err
		}
	}
	eSecs := time.Since(e0).Seconds()
	var one bytes.Buffer
	if err := enc.WriteBlock(&one, s.a.PeekBlock(0, 0)); err != nil {
		return err
	}
	dec := matrix.BlockCodec{Pool: &tr.pool}
	rd := bytes.NewReader(one.Bytes())
	d0 := time.Now()
	for b := 0; b < blocks; b++ {
		rd.Reset(one.Bytes())
		blk, err := dec.ReadBlock(rd)
		if err != nil {
			return err
		}
		tr.pool.Put(blk)
	}
	dSecs := time.Since(d0).Seconds()
	led.encBytes += float64(blocks * matrix.BlockWireSize(q))
	led.encSecs += eSecs
	led.decSecs += dSecs

	ws := make([]platform.Worker, len(sel.Workers))
	for k, wi := range sel.Workers {
		ws[k] = platform.Worker{Name: fmt.Sprint("P", wi+1), C: (eSecs + dSecs) / float64(blocks), W: kSecs / float64(updates), M: fleetSpecs[wi].M}
	}
	pl, err := platform.New(ws...)
	if err != nil {
		return err
	}
	pred, err := sched.Het{}.Schedule(pl, j.Inst)
	if err != nil {
		return err
	}
	led.makespanRatio = append(led.makespanRatio, ratio(exec.Seconds(), pred.Stats.Makespan))
	return nil
}

// report adds the ledger's per-layer metrics; e2eP50 is the untraced
// latency_p50_ms of the same workload's load phase.
func (l *ledger) report(res *result, e2eP50 float64) {
	n := float64(max(len(l.wall), 1))
	res.set("cache.hash_ms", mean(l.hash), "ms")
	res.set("cache.hash_mb_s", ratio(l.hashBytes, l.hashSecs)/1e6, "MB/s")
	res.set("serve.select_ms", mean(l.sel), "ms")
	res.set("sched.plan_ms", mean(l.plan), "ms")
	res.set("sched.plan_allocs_per_job", mean(l.planAllocs), "count")
	res.set("serve.lease_ms", mean(l.lease), "ms")
	res.set("net.execute_ms", mean(l.exec), "ms")
	res.set("serve.return_ms", mean(l.ret), "ms")
	res.set("sched.makespan_ratio", median(l.makespanRatio), "ratio")
	res.set("net.wire_bytes_per_job", l.wireBytes/n, "B")
	res.set("net.comm_ratio", ratio(l.wireBytes, l.predBytes), "ratio")
	res.set("matrix.encode_gb_s", ratio(l.encBytes, l.encSecs)/1e9, "GB/s")
	res.set("matrix.decode_gb_s", ratio(l.encBytes, l.decSecs)/1e9, "GB/s")
	res.set("kernel.gflops", ratio(l.kernelFlops, l.kernelSecs)/1e9, "GFLOP/s")
	res.set("kernel.share_of_execute", ratio(l.kernelSecs, l.execSecs), "fraction")
	res.set("kernel.flops_per_byte", ratio(l.kernelFlops, l.kernelBytes), "FLOP/B")
	res.set("ledger.wall_ms", mean(l.wall), "ms")
	res.set("ledger.coverage", ratio(l.spanSum, l.wallSum), "fraction")
	res.set("ledger.traced_over_e2e", ratio(median(l.wall), e2eP50), "ratio")
	res.set("ledger.jobs", float64(len(l.wall)), "count")
	if c := ratio(l.spanSum, l.wallSum); c < coverageBound {
		res.note("WARNING: ledger.coverage %.4f is below its bound %.2f", c, coverageBound)
	}
}
