package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/load"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/matmul"
)

// workload is one seeded traffic mix. The job list comes from load.Spec;
// the program under test only ever sees the generated jobs.
type workload struct {
	name  string
	sizes []load.SizeClass
	// slo is the fixed latency limit per size name for slo_attainment.
	slo map[string]time.Duration
	// rate > 0 makes the workload an open loop at that offered rate
	// (jobs/s, Poisson), submitting straight to Server.SubmitPanels.
	// Otherwise it is a closed loop of `clients` Remote sessions.
	rate    float64
	clients int
	// shared names the size whose jobs multiply one of sharedA fixed A
	// operands (submitted with client digests) against a fresh B.
	shared  string
	sharedA int
	// sharedB is the number of B bases shared-A jobs stamp from; it sets how
	// many such jobs run before a B repeats (sharedB·sharedSpan).
	sharedB int
	// warmup is the number of jobs set-up runs before measuring, so the
	// adaptive estimates and the worker caches have settled.
	warmup int
	// slots bounds the operand sets of one shape in flight at once; the
	// operand pool is allocated at set-up and never grows.
	slots map[string]int
}

func shape(name string, r, s, t, q int, weight float64) load.SizeClass {
	return load.SizeClass{Name: name, Inst: sched.Instance{R: r, S: s, T: t}, Q: q, Weight: weight}
}

// workloads are the benchmark's traffic mixes; README.md and
// BENCHMARK.json record why each was chosen.
var workloads = map[string]*workload{
	"small": {
		sizes: []load.SizeClass{
			shape("small", 2, 2, 2, 16, 0.30), shape("small", 3, 2, 2, 16, 0.20), shape("small", 2, 3, 2, 16, 0.20),
			shape("serve", 6, 9, 4, 16, 0.15), shape("serve", 6, 8, 4, 16, 0.075), shape("serve", 5, 9, 4, 16, 0.075),
		},
		slo:     map[string]time.Duration{"small": 20 * time.Millisecond, "serve": 60 * time.Millisecond},
		clients: 2,
		warmup:  32,
	},
	"large": {
		sizes:   []load.SizeClass{shape("large", 8, 8, 8, 80, 1)},
		slo:     map[string]time.Duration{"large": 250 * time.Millisecond},
		clients: 2,
		warmup:  8,
	},
	"mixed-shared": {
		sizes: []load.SizeClass{
			shape("small", 2, 2, 2, 16, 0.9), shape("medium", 8, 8, 8, 32, 0.1),
		},
		slo:     map[string]time.Duration{"small": 25 * time.Millisecond, "medium": 100 * time.Millisecond},
		rate:    300,
		shared:  "medium",
		sharedA: 3,
		sharedB: 8,
		warmup:  32,
		slots:   map[string]int{"small": 64, "medium": 24},
	},
}

func init() {
	for name, w := range workloads {
		w.name = name
	}
}

// jobList generates the workload's seeded job list. A closed loop cycles
// through it; an open loop replays it in arrival order until dur.
func (w *workload) jobList(seed int64, dur time.Duration) ([]load.Job, error) {
	spec := load.Spec{Seed: seed, N: 4096, Arrivals: load.Poisson(1000), Sizes: w.sizes}
	if w.rate > 0 {
		spec.Arrivals = load.Poisson(w.rate)
		spec.N = int(w.rate*dur.Seconds()*1.5) + 64
	}
	jobs, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	if w.rate > 0 {
		n := 0
		for n < len(jobs) && jobs[n].At < dur {
			n++
		}
		jobs = jobs[:n]
	}
	return jobs, nil
}

// Operands. Every job must carry fresh bits (so every panel digest is new
// and the caches see honest misses) while its reference C stays precomputed:
// building a reference per job would cost as much as the job. Both hold
// because scaling by powers of two is exact in binary floating point. A job
// multiplies A·D by D⁻¹·B, with D a diagonal of per-panel powers of two drawn
// from the family's job counter: every product a·b, and so every rounding
// step and the result, is bitwise that of the unscaled base. Shared-A jobs
// keep A fixed and take one of a few B bases scaled, with C0, by one power
// of two 2^e, so C = 2^e·C_ref exactly.

// family is the base operands of one size name: every shape of the name
// shares t and q, and takes the top-left corner of the base.
type family struct {
	t, q int
	next atomic.Int64 // job counter: the source of every stamp
	// fresh jobs
	a, b, ref *matrix.BlockMatrix // maxR×t, t×maxS, c0 + a·b
	c0        *matrix.BlockMatrix // maxR×maxS
	// shared-A jobs: refs[i][k] = c0 + sharedA[i]·sharedB[k]
	sharedA  []*matrix.BlockMatrix
	sharedB  []*matrix.BlockMatrix
	refs     [][]*matrix.BlockMatrix
	sharedJP []*cache.JobPanels // A row digests of each shared A
}

// slot is one job's operand set, reused once the job is checked.
type slot struct {
	inst    sched.Instance
	fam     *family
	a, b, c *matrix.BlockMatrix
	ownA    *matrix.BlockMatrix // a when the job's A is not shared
	cBlocks []*matrix.Block     // c's own blocks; runtimes may swap in theirs
	d, dInv []float64           // fresh jobs: the per-panel powers of two
	scale   float64             // C must equal scale·ref bitwise
	ref     *matrix.BlockMatrix
	shared  bool
	// sharedIdx is the shared A this job multiplies.
	sharedIdx int
}

// operands is a workload's fixed, bounded operand pool: families built from
// the seed, and per shape a free list of slots allocated once at set-up.
type operands struct {
	fams  map[string]*family
	pools map[sched.Instance]chan *slot
}

const (
	freshSpan  = 601 // per-panel exponents -300..300
	sharedSpan = 801 // shared-B exponents -400..400
)

func newOperands(w *workload, seed int64) (*operands, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := &operands{fams: map[string]*family{}, pools: map[sched.Instance]chan *slot{}}
	maxRS := map[string][2]int{}
	for _, sc := range w.sizes {
		f := ops.fams[sc.Name]
		if f == nil {
			f = &family{t: sc.Inst.T, q: sc.Q}
			ops.fams[sc.Name] = f
		}
		if f.t != sc.Inst.T || f.q != sc.Q {
			return nil, fmt.Errorf("size %q mixes inner dimensions or block edges", sc.Name)
		}
		m := maxRS[sc.Name]
		maxRS[sc.Name] = [2]int{max(m[0], sc.Inst.R), max(m[1], sc.Inst.S)}
	}
	built := map[string]bool{}
	for _, sc := range w.sizes { // list order, so the seed fixes every operand
		name, f := sc.Name, ops.fams[sc.Name]
		if built[name] {
			continue
		}
		built[name] = true
		r, s := maxRS[name][0], maxRS[name][1]
		f.c0 = randomMatrix(rng, r, s, f.q)
		if name != w.shared {
			f.a = randomMatrix(rng, r, f.t, f.q)
			f.b = randomMatrix(rng, f.t, s, f.q)
			f.ref = product(f.c0, f.a, f.b)
			continue
		}
		for k := 0; k < w.sharedB; k++ {
			f.sharedB = append(f.sharedB, randomMatrix(rng, f.t, s, f.q))
		}
		for i := 0; i < w.sharedA; i++ {
			a := randomMatrix(rng, r, f.t, f.q)
			f.sharedA = append(f.sharedA, a)
			f.sharedJP = append(f.sharedJP, cache.PanelsForJob(a, f.sharedB[0]))
			refs := make([]*matrix.BlockMatrix, w.sharedB)
			for k, b := range f.sharedB {
				refs[k] = product(f.c0, a, b)
			}
			f.refs = append(f.refs, refs)
		}
	}
	for _, sc := range w.sizes {
		if _, ok := ops.pools[sc.Inst]; ok {
			continue
		}
		n := w.clients
		if w.slots != nil {
			n = w.slots[sc.Name]
		}
		pool := make(chan *slot, n)
		for i := 0; i < n; i++ {
			pool <- newSlot(sc.Inst, ops.fams[sc.Name], sc.Name == w.shared)
		}
		ops.pools[sc.Inst] = pool
	}
	return ops, nil
}

func randomMatrix(rng *rand.Rand, r, c, q int) *matrix.BlockMatrix {
	m := matrix.NewBlockMatrix(r, c, q)
	m.FillRandom(rng)
	return m
}

func product(c0, a, b *matrix.BlockMatrix) *matrix.BlockMatrix {
	c := c0.Clone()
	if err := matmul.Multiply(c, a, b); err != nil {
		panic(err) // shapes are built consistent above
	}
	return c
}

func newSlot(inst sched.Instance, f *family, shared bool) *slot {
	s := &slot{inst: inst, fam: f, shared: shared}
	s.b = materialized(inst.T, inst.S, f.q)
	s.c = materialized(inst.R, inst.S, f.q)
	if !shared {
		s.ownA = materialized(inst.R, inst.T, f.q)
		s.d, s.dInv = make([]float64, inst.T), make([]float64, inst.T)
	}
	for i := 0; i < inst.R; i++ {
		for j := 0; j < inst.S; j++ {
			s.cBlocks = append(s.cBlocks, s.c.Block(i, j))
		}
	}
	return s
}

func materialized(r, c, q int) *matrix.BlockMatrix {
	m := matrix.NewBlockMatrix(r, c, q)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Block(i, j)
		}
	}
	return m
}

// acquire takes a free slot of the job's shape and stamps the next fresh
// operands into it; it blocks while every slot of the shape is in flight.
func (o *operands) acquire(j load.Job) *slot {
	s := <-o.pools[j.Inst]
	s.stamp(s.fam.next.Add(1))
	return s
}

func (o *operands) release(s *slot) { o.pools[s.inst] <- s }

func (s *slot) stamp(n int64) {
	f, inst := s.fam, s.inst
	k := 0
	for i := 0; i < inst.R; i++ {
		for j := 0; j < inst.S; j++ {
			s.c.SetBlock(i, j, s.cBlocks[k])
			k++
		}
	}
	if s.shared {
		s.sharedIdx = int(n % int64(len(f.sharedA)))
		bi := int(n / sharedSpan % int64(len(f.sharedB)))
		s.a, s.ref = f.sharedA[s.sharedIdx], f.refs[s.sharedIdx][bi]
		s.scale = math.Ldexp(1, int(n%sharedSpan)-sharedSpan/2)
		scaleMatrix(s.b, f.sharedB[bi], nil, nil, s.scale)
		scaleMatrix(s.c, f.c0, nil, nil, s.scale)
		return
	}
	for k, x := 0, n; k < inst.T; k++ {
		s.d[k] = math.Ldexp(1, int(x%freshSpan)-freshSpan/2)
		s.dInv[k] = 1 / s.d[k]
		x /= freshSpan
	}
	s.a, s.ref, s.scale = s.ownA, f.ref, 1
	scaleMatrix(s.a, f.a, nil, s.d, 1)    // column k of A by d_k
	scaleMatrix(s.b, f.b, s.dInv, nil, 1) // row k of B by 1/d_k
	scaleMatrix(s.c, f.c0, nil, nil, 1)
}

// scaleMatrix writes dst(i,j) = f·row[i]·col[j]·base(i,j) over dst's shape
// (a nil factor slice reads as ones). Every factor is a power of two.
func scaleMatrix(dst, base *matrix.BlockMatrix, row, col []float64, f float64) {
	for i := 0; i < dst.Rows; i++ {
		for j := 0; j < dst.Cols; j++ {
			x := f
			if row != nil {
				x *= row[i]
			}
			if col != nil {
				x *= col[j]
			}
			scaleBlock(dst.PeekBlock(i, j), base.PeekBlock(i, j), x)
		}
	}
}

func scaleBlock(dst, src *matrix.Block, f float64) {
	if f == 1 {
		copy(dst.Data, src.Data)
		return
	}
	for x, v := range src.Data {
		dst.Data[x] = v * f
	}
}

// clientDigests is what an installed matmul.Operand submits for a shared-A
// job: A's memoized row digests and freshly hashed B column digests.
func (s *slot) clientDigests() *cache.JobPanels {
	jp := &cache.JobPanels{T: s.inst.T, Q: s.fam.q, ARows: s.fam.sharedJP[s.sharedIdx].ARows}
	jp.BCols = make([]cache.Digest, s.inst.S)
	for j := range jp.BCols {
		jp.BCols[j] = cache.ColPanelDigest(s.b, j)
	}
	return jp
}

// check compares the returned C bitwise with scale·ref.
func (s *slot) check() bool {
	for i := 0; i < s.c.Rows; i++ {
		for j := 0; j < s.c.Cols; j++ {
			got, want := s.c.PeekBlock(i, j), s.ref.PeekBlock(i, j)
			if got == nil || len(got.Data) != len(want.Data) {
				return false
			}
			for x, v := range want.Data {
				if math.Float64bits(got.Data[x]) != math.Float64bits(v*s.scale) {
					return false
				}
			}
		}
	}
	return true
}

// sample is one job's outcome.
type sample struct {
	size    string
	flops   float64
	latency time.Duration // submit (closed loop) or due time (open loop) to completion
	lag     time.Duration // open loop: how late the generator sent it
	ok      bool          // completed and C checked bitwise
}

type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

func jobFlops(j load.Job) float64 {
	q := float64(j.Q)
	return 2 * float64(j.Inst.R*j.Inst.S*j.Inst.T) * q * q * q
}

// submitter runs one prepared job to completion through the workload's
// path into the program and reports its error.
type submitter func(ctx context.Context, client int, s *slot) error

// remoteSubmit is the closed-loop path: matmul.Session.Submit on the Remote
// runtime, which hashes plain operands client-side and streams them to the
// daemon over a fresh client connection.
func remoteSubmit(d *deployment) submitter {
	return func(ctx context.Context, client int, s *slot) error {
		j, err := d.sessions[client].Submit(ctx, s.a, s.b, s.c)
		if err != nil {
			return err
		}
		return j.Wait(ctx)
	}
}

// directSubmit is the open-loop path: Server.SubmitPanels with client
// digests for shared-A jobs (the server hashes everything else).
func directSubmit(d *deployment) submitter {
	return func(_ context.Context, _ int, s *slot) error {
		var jp *cache.JobPanels
		if s.shared {
			jp = s.clientDigests()
		}
		id, err := d.srv.SubmitPanels(s.a, s.b, s.c, jp)
		if err != nil {
			return err
		}
		return d.srv.Wait(id)
	}
}

// closedLoop runs `clients` loops that each submit the next job of the list
// and wait for it, until limit jobs were started (limit > 0) or dur passed.
// Operands are stamped before a job's clock starts and checked after it
// stops. It returns the wall time from start to the last completion.
func closedLoop(ctx context.Context, clients int, jobs []load.Job, ops *operands, submit submitter, limit int, dur time.Duration, rec *recorder) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	var last atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if (limit > 0 && i >= int64(limit)) || (limit <= 0 && time.Now().After(deadline)) || ctx.Err() != nil {
					return
				}
				j := jobs[i%int64(len(jobs))]
				s := ops.acquire(j)
				t0 := time.Now()
				err := submit(ctx, c, s)
				lat := time.Since(t0)
				last.Store(int64(time.Since(start)))
				rec.add(sample{size: j.Size, flops: jobFlops(j), latency: lat, ok: err == nil && s.check()})
				ops.release(s)
			}
		}()
	}
	wg.Wait()
	return time.Duration(last.Load())
}

// lookahead is how far ahead of a job's due time the open-loop generator
// takes a slot and stamps its operands, so operand building stays outside
// the timed window.
const lookahead = 20 * time.Millisecond

// openLoop replays the arrival list: each job's operands are stamped
// lookahead before it is due, it is submitted at its due time, and its
// latency is timed from the due time, so a stall also charges the jobs
// queued behind it. It returns the wall time from start to the last
// completion.
func openLoop(ctx context.Context, jobs []load.Job, ops *operands, submit submitter, rec *recorder) (time.Duration, error) {
	early := make([]load.Job, len(jobs))
	for i, j := range jobs {
		early[i] = j
		early[i].At = max(0, j.At-lookahead)
	}
	var last atomic.Int64
	start := time.Now()
	err := load.Replay(ctx, early, 1, func(i int, _ load.Job) {
		j := jobs[i]
		s := ops.acquire(j)
		due := start.Add(j.At)
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		err := submit(ctx, 0, s)
		lat := time.Since(due)
		last.Store(int64(time.Since(start)))
		rec.add(sample{size: j.Size, flops: jobFlops(j), latency: lat, lag: lag, ok: err == nil && s.check()})
		ops.release(s)
	})
	return time.Duration(last.Load()), err
}

// drive runs the workload's measured phase on a deployment.
func (w *workload) drive(ctx context.Context, d *deployment, jobs []load.Job, ops *operands, dur time.Duration, rec *recorder) (time.Duration, error) {
	if w.rate > 0 {
		return openLoop(ctx, jobs, ops, directSubmit(d), rec)
	}
	return closedLoop(ctx, w.clients, jobs, ops, remoteSubmit(d), 0, dur, rec), nil
}

// warmLimit bounds the warm-up of one set-up.
const warmLimit = 30 * time.Second

// warm runs set-up batches of w.warmup jobs from the head of the list,
// closed loop, through the workload's own submission path, until the
// adaptive estimates have seen at least two batches and the fleet has been
// sent as many operand-panel bytes as all worker caches hold together, so
// the caches the workload uses are full and evicting.
func (w *workload) warm(ctx context.Context, d *deployment, jobs []load.Job, ops *operands) error {
	submit, clients := directSubmit(d), 2
	if w.rate == 0 {
		submit, clients = remoteSubmit(d), w.clients
	}
	deadline := time.Now().Add(warmLimit)
	for batch := 1; ; batch++ {
		var rec recorder
		closedLoop(ctx, clients, jobs, ops, submit, w.warmup, 0, &rec)
		for _, s := range rec.samples {
			if !s.ok {
				return fmt.Errorf("warm-up job (%s) failed or returned a wrong C", s.size)
			}
		}
		st := d.srv.Status().Cache
		if batch >= 2 && st != nil && st.ASentBytes+st.BSentBytes >= int64(len(fleetSpecs))*cacheBudget {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up did not fill the worker caches within %v", warmLimit)
		}
	}
}
