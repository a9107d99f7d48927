// Command svcbench is the repository's service benchmark. It starts a
// loopback mmserve deployment in this process — a serve.Server with the
// daemon's default configuration over four in-process mmworker daemons —
// replays one seeded workload against it, checks every returned C bitwise
// against a serial reference, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics from a load phase plus a traced one-job-at-a-time
// replay. The exit status is non-zero when any job failed or returned a
// wrong C. See README.md for the workloads and the ledger.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/serve"
)

// setupRepeats is how many times an end-to-end run sets the deployment up;
// setup_s is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human table, then the JSON line last.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	name := flag.String("workload", "", "workload: small, large or mixed-shared")
	seed := flag.Int64("seed", 1, "workload seed: job list and operands")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: svcbench --workload small|large|mixed-shared --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runPerLayer(w, *seed, dur)
	} else {
		res, err = runEndToEnd(w, *seed, dur)
	}
	if err == nil {
		err = res.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "svcbench: a job failed or returned a wrong C")
		os.Exit(1)
	}
}

// stack is a set-up deployment together with its workers.
type stack struct {
	wk *workers
	d  *deployment
}

func (s *stack) close() {
	s.d.close()
	s.wk.stop()
}

// setUp starts workers, dials the fleet, starts the daemon and runs the
// warm-up jobs; the returned duration is the set-up time.
func setUp(ctx context.Context, w *workload, jobs []load.Job, ops *operands) (*stack, time.Duration, error) {
	t0 := time.Now()
	wk, err := startWorkers()
	if err != nil {
		return nil, 0, err
	}
	d, err := deploy(wk, w.clients)
	if err != nil {
		wk.stop()
		return nil, 0, err
	}
	s := &stack{wk, d}
	if err := w.warm(ctx, d, jobs, ops); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

// prepare builds the job list and operand pool and sets the deployment up
// `repeats` times, keeping the last one.
func prepare(ctx context.Context, w *workload, seed int64, dur time.Duration, repeats int) (*stack, []load.Job, *operands, []float64, error) {
	jobs, err := w.jobList(seed, dur)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ops, err := newOperands(w, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	var st *stack
	var setups []float64
	for i := 0; i < repeats; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		st, d, err = setUp(ctx, w, jobs, ops)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	return st, jobs, ops, setups, nil
}

// outcome summarizes one measured phase.
type outcome struct {
	attempted, failed int
	elapsed           time.Duration
	lat               []float64 // ms, completed and checked jobs
	bySize            map[string][]float64
	lags              []float64 // ms, open loop only
	flops             float64
	sloMet            int
}

func summarize(w *workload, rec *recorder, elapsed time.Duration) outcome {
	o := outcome{elapsed: elapsed, bySize: map[string][]float64{}}
	for _, s := range rec.samples {
		o.attempted++
		if w.rate > 0 {
			o.lags = append(o.lags, ms(s.lag))
		}
		if !s.ok {
			o.failed++
			continue
		}
		l := ms(s.latency)
		o.lat = append(o.lat, l)
		o.bySize[s.size] = append(o.bySize[s.size], l)
		o.flops += s.flops
		if s.latency <= w.slo[s.size] {
			o.sloMet++
		}
	}
	return o
}

func runEndToEnd(w *workload, seed int64, dur time.Duration) (*result, error) {
	ctx := context.Background()
	st, jobs, ops, setups, err := prepare(ctx, w, seed, dur, setupRepeats)
	if err != nil {
		return nil, err
	}
	rec := &recorder{samples: make([]sample, 0, 1<<16)}
	stop := make(chan struct{})
	peak := heapPeak(stop)
	elapsed, err := w.drive(ctx, st.d, jobs, ops, dur, rec)
	close(stop)
	heap := <-peak
	st.close()
	if err != nil {
		return nil, err
	}
	o := summarize(w, rec, elapsed)
	if o.attempted == 0 || len(o.lat) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	pct, tl := tail(o.lat)
	res.set("jobs_per_s", float64(len(o.lat))/o.elapsed.Seconds(), "1/s")
	res.set("gflops", o.flops/o.elapsed.Seconds()/1e9, "GFLOP/s")
	res.set("latency_p50_ms", median(o.lat), "ms")
	res.set("latency_tail_ms", tl, "ms")
	res.set("slo_attainment", float64(o.sloMet)/float64(o.attempted), "fraction")
	res.set("setup_s", median(setups), "s")
	res.set("heap_peak_mb", heap, "MiB")
	res.note("workload %s seed %d: %d jobs attempted, %d failed, every C checked bitwise", w.name, seed, o.attempted, o.failed)
	res.note("latency_tail_ms is p%g over %d samples; set-ups took %v s", pct, len(o.lat), setups)
	res.note("kernel %s, GOMAXPROCS %d", kernel.Name(), runtime.GOMAXPROCS(0))
	return res, nil
}

// classLatencies reports a size's p50 and tail (0 when the workload has no
// job of that size).
func classLatencies(res *result, o outcome, size string) {
	xs := o.bySize[size]
	_, tl := tail(xs)
	res.set("class."+size+"_p50_ms", median(xs), "ms")
	res.set("class."+size+"_tail_ms", tl, "ms")
}

func runPerLayer(w *workload, seed int64, dur time.Duration) (*result, error) {
	ctx := context.Background()
	loadDur := dur / 2
	st, jobs, ops, _, err := prepare(ctx, w, seed, loadDur, 1)
	if err != nil {
		return nil, err
	}

	// Load phase: the untraced workload, bracketed by the program's own
	// counters and the runtime's.
	rec := &recorder{samples: make([]sample, 0, 1<<15)}
	cache0, prom0, rt0 := cacheTotals(st.d.srv), scrapeMetrics(), readRuntime()
	elapsed, err := w.drive(ctx, st.d, jobs, ops, loadDur, rec)
	cache1, prom1, rt1 := cacheTotals(st.d.srv), scrapeMetrics(), readRuntime()
	st.d.close() // the traced replay dials the same workers
	if err != nil {
		st.wk.stop()
		return nil, err
	}
	o := summarize(w, rec, elapsed)

	// Traced phase: one job at a time through the daemon's public steps.
	led, err := replay(ctx, st.wk, w, jobs, ops, dur-loadDur)
	st.wk.stop()
	if err != nil {
		return nil, err
	}

	res := &result{Correct: o.failed == 0 && led.failed == 0, Attempted: o.attempted + led.jobs,
		Failed: o.failed + led.failed, Metrics: map[string]metric{}}
	n := float64(max(len(o.lat), 1))
	hits, misses := cache1.PanelHits-cache0.PanelHits, cache1.PanelMisses-cache0.PanelMisses
	aSent, aSaved := cache1.ASentBytes-cache0.ASentBytes, cache1.ASavedBytes-cache0.ASavedBytes
	res.set("cache.panel_hit_frac", ratio(float64(hits), float64(hits+misses)), "fraction")
	res.set("cache.a_saved_frac", ratio(float64(aSaved), float64(aSent+aSaved)), "fraction")
	res.set("serve.queue_wait_p50_ms", histQuantile(prom0, prom1, "mm_serve_queue_wait_seconds", 0.5), "ms")
	res.set("serve.queue_wait_p99_ms", histQuantile(prom0, prom1, "mm_serve_queue_wait_seconds", 0.99), "ms")
	res.set("engine.sendab_p50_ms", histQuantile(prom0, prom1, "mm_engine_sendab_seconds", 0.5), "ms")
	res.set("engine.recvc_p50_ms", histQuantile(prom0, prom1, "mm_engine_recvc_seconds", 0.5), "ms")
	res.set("runtime.allocs_per_job", (rt1.allocs-rt0.allocs)/n, "count")
	res.set("runtime.alloc_bytes_per_job", (rt1.allocBytes-rt0.allocBytes)/n, "B")
	res.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "fraction")
	res.set("load.send_lag_p99_ms", quantile(o.lags, 0.99), "ms")
	pct, _ := tail(o.lat)
	res.set("e2e.tail_pct", pct, "percentile")
	res.set("e2e.samples", float64(len(o.lat)), "count")
	res.set("e2e.failed_frac", ratio(float64(o.failed), float64(o.attempted)), "fraction")
	for _, size := range []string{"small", "medium"} {
		classLatencies(res, o, size)
	}
	led.report(res, median(o.lat))
	res.note("workload %s seed %d: load phase %d jobs (%d failed), traced replay %d jobs (%d failed), every C checked bitwise",
		w.name, seed, o.attempted, o.failed, led.jobs, led.failed)
	res.note("kernel %s, GOMAXPROCS %d", kernel.Name(), runtime.GOMAXPROCS(0))
	return res, nil
}

func cacheTotals(srv *serve.Server) serve.CacheTotals {
	if c := srv.Status().Cache; c != nil {
		return *c
	}
	return serve.CacheTotals{}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
