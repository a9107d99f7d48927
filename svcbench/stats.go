package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// quantile returns the q-quantile of xs (nearest rank on the sorted values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailLadder lists the percentiles a tail latency may report, highest first.
var tailLadder = []float64{95, 90, 75, 50}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, and its value.
func tail(xs []float64) (pct, v float64) {
	for _, p := range tailLadder {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, quantile(xs, 0.5)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// scrape is one snapshot of the process's obs registry: the program's own
// /metrics exposition, keyed by series (name plus labels).
type scrape map[string]float64

func scrapeMetrics() scrape {
	var buf bytes.Buffer
	_ = obs.Default.WritePrometheus(&buf) // a bytes.Buffer never fails
	out := scrape{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sum adds every series of a counter family (all label values).
func (s scrape) sum(family string) float64 {
	var t float64
	for k, v := range s {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}

// histQuantile estimates the q-quantile of a histogram family's
// observations between two scrapes, interpolating linearly inside the
// log-spaced bucket that holds it. It returns milliseconds.
func histQuantile(before, after scrape, family string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		ub := math.Inf(1)
		if le != "+Inf" {
			ub, _ = strconv.ParseFloat(le, 64)
		}
		bs = append(bs, bucket{ub, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target && b.n > prev {
			if math.IsInf(b.le, 1) {
				return lo * 1e3
			}
			return (lo + (target-prev)/(b.n-prev)*(b.le-lo)) * 1e3
		}
		lo, prev = b.le, b.n
	}
	return lo * 1e3
}

// runtimeSample reads the runtime counters the per-layer ledger uses.
type runtimeSample struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{f(0), f(1), f(2), f(3)}
}

// heapAllocs reads the cumulative heap allocation count alone, cheaply
// enough to bracket one scheduler call.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap (as marked by the last GC) until stop is
// closed and returns the highest value seen, in MiB.
func heapPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				out <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return out
}
