package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func randMatrix(rows, cols, q int, seed int64) *matrix.BlockMatrix {
	m := matrix.NewBlockMatrix(rows, cols, q)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

func TestPanelDigests(t *testing.T) {
	a := randMatrix(3, 4, 4, 1)
	b := randMatrix(3, 4, 4, 1) // identical content, distinct object

	if RowPanelDigest(a, 0) != RowPanelDigest(b, 0) {
		t.Fatal("identical row panels hash differently")
	}
	if RowPanelDigest(a, 0) == RowPanelDigest(a, 1) {
		t.Fatal("distinct row panels collide")
	}
	if ColPanelDigest(a, 1) != ColPanelDigest(b, 1) {
		t.Fatal("identical column panels hash differently")
	}

	// A single bit flip must change the digest.
	before := RowPanelDigest(a, 2)
	blk := a.Block(2, 3)
	blk.Set(1, 1, blk.At(1, 1)+1e-9)
	if RowPanelDigest(a, 2) == before {
		t.Fatal("digest ignored an element change")
	}

	// Implicit zero blocks hash like materialized zero blocks, without being
	// materialized.
	z1 := matrix.NewBlockMatrix(2, 3, 4)
	z2 := matrix.NewBlockMatrix(2, 3, 4)
	z2.Block(0, 1).Zero() // materialize one explicitly
	if RowPanelDigest(z1, 0) != RowPanelDigest(z2, 0) {
		t.Fatal("implicit and explicit zero blocks hash differently")
	}
	if z1.PeekBlock(0, 1) != nil {
		t.Fatal("digesting materialized an implicit zero block")
	}
}

func TestJobPanels(t *testing.T) {
	a := randMatrix(3, 2, 4, 7)
	b := randMatrix(2, 4, 4, 8)
	jp := PanelsForJob(a, b)
	if jp.T != 2 || jp.Q != 4 || len(jp.ARows) != 3 || len(jp.BCols) != 4 {
		t.Fatalf("unexpected shape: %+v", jp)
	}
	if got, want := jp.PanelBytes(), PanelDataBytes(4, 2); got != want {
		t.Fatalf("panel bytes %d, want %d", got, want)
	}
	if n := len(jp.Digests()); n != 7 {
		t.Fatalf("expected 7 distinct digests, got %d", n)
	}

	// A duplicated row panel dedupes in the handshake query set.
	for k := 0; k < a.Cols; k++ {
		a.SetBlock(1, k, a.Block(0, k).Clone())
	}
	jp = PanelsForJob(a, b)
	if n := len(jp.Digests()); n != 6 {
		t.Fatalf("expected 6 distinct digests after duplicating a row, got %d", n)
	}
}

func panelBlocks(q, t int, seed int64) []*matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Block, t)
	for i := range out {
		out[i] = matrix.NewBlock(q)
		out[i].FillRandom(rng)
	}
	return out
}

func dig(seed int64) Digest {
	var d Digest
	rand.New(rand.NewSource(seed)).Read(d[:])
	return d
}

func TestPanelCacheLRUEviction(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth) // 256 bytes
	c := NewPanelCache(3 * panelBytes)

	ds := []Digest{dig(1), dig(2), dig(3), dig(4)}
	for i, d := range ds[:3] {
		if !c.Install(d, panelBlocks(q, depth, int64(i))) {
			t.Fatalf("install %d not absorbed", i)
		}
	}
	c.UnpinAll()
	if st := c.Snapshot(); st.Panels != 3 || st.Bytes != 3*panelBytes {
		t.Fatalf("expected 3 resident panels, got %+v", st)
	}

	// Touch ds[0] so ds[1] is the LRU victim, then overflow by one panel.
	if c.Get(ds[0]) == nil {
		t.Fatal("ds[0] should be resident")
	}
	c.Install(ds[3], panelBlocks(q, depth, 9))
	c.UnpinAll()
	if c.Get(ds[1]) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	for _, d := range []Digest{ds[0], ds[2], ds[3]} {
		if c.Get(d) == nil {
			t.Fatalf("panel %v unexpectedly evicted", d)
		}
	}
	if st := c.Snapshot(); st.Evictions != 1 || st.Bytes != 3*panelBytes {
		t.Fatalf("expected exactly one eviction, got %+v", st)
	}
}

func TestPanelCachePinningBlocksEviction(t *testing.T) {
	q, depth := 4, 2
	panelBytes := PanelDataBytes(q, depth)
	c := NewPanelCache(2 * panelBytes)
	d1, d2 := dig(1), dig(2)
	c.Install(d1, panelBlocks(q, depth, 1))
	c.Install(d2, panelBlocks(q, depth, 2))
	c.UnpinAll()

	// BeginJob pins both; installing two more panels overshoots the budget
	// because nothing evictable remains.
	have := c.BeginJob([]Digest{d1, d2, dig(3)})
	if !have[0] || !have[1] || have[2] {
		t.Fatalf("unexpected handshake answer %v", have)
	}
	c.Install(dig(4), panelBlocks(q, depth, 4))
	c.Install(dig(5), panelBlocks(q, depth, 5))
	if st := c.Snapshot(); st.Bytes != 4*panelBytes || st.Evictions != 0 {
		t.Fatalf("pinned entries must not evict mid-job: %+v", st)
	}
	if c.Get(d1) == nil || c.Get(d2) == nil {
		t.Fatal("pinned panel evicted mid-job")
	}

	// The epoch ends: the cache trims back under budget.
	c.UnpinAll()
	if st := c.Snapshot(); st.Bytes > 2*panelBytes {
		t.Fatalf("cache still over budget after UnpinAll: %+v", st)
	}

	// A fresh BeginJob drops the previous epoch's pins by itself.
	c.BeginJob(nil)
	c.Install(dig(6), panelBlocks(q, depth, 6))
	c.Install(dig(7), panelBlocks(q, depth, 7))
	c.Install(dig(8), panelBlocks(q, depth, 8))
	c.UnpinAll()
	if st := c.Snapshot(); st.Bytes > 2*panelBytes {
		t.Fatalf("cache over budget after epoch turnover: %+v", st)
	}
}

// TestPanelCacheEpochPins pins down the epoch semantics: a pin lasts exactly
// one job (until the next BeginJob or UnpinAll), installing an
// already-resident digest re-pins it in the current epoch, and eviction
// passes over current-epoch entries to take stale ones, however recently the
// stale ones were used.
func TestPanelCacheEpochPins(t *testing.T) {
	q, depth := 4, 2
	pb := PanelDataBytes(q, depth)
	c := NewPanelCache(2 * pb)
	d1, d2, d3, d4, d5 := dig(1), dig(2), dig(3), dig(4), dig(5)
	resident := func(step string, want ...Digest) {
		t.Helper()
		if st := c.Snapshot(); st.Panels != len(want) {
			t.Errorf("%s: %d panels resident, want %d", step, st.Panels, len(want))
		}
		for _, d := range want {
			if _, ok := c.entries[d]; !ok {
				t.Errorf("%s: panel %v not resident", step, d)
			}
		}
	}

	// Job n installs three panels: all pinned, so the cache runs over budget.
	c.BeginJob(nil)
	c.Install(d1, panelBlocks(q, depth, 1))
	c.Install(d2, panelBlocks(q, depth, 2))
	c.Install(d3, panelBlocks(q, depth, 3))
	resident("job n", d1, d2, d3)

	// Job n+1's BeginJob ends job n's pins: the queried d1 is pinned anew and
	// the least recently used stale entry, d2, goes.
	if have := c.BeginJob([]Digest{d1}); !have[0] {
		t.Fatal("d1 not reported resident")
	}
	resident("job n+1 handshake", d1, d3)

	// Re-installing the stale d3 re-pins it; with d1 and d3 both pinned, d4
	// overshoots the budget and nothing is evicted.
	if c.Install(d3, panelBlocks(q, depth, 33)) {
		t.Fatal("duplicate install absorbed")
	}
	c.Install(d4, panelBlocks(q, depth, 4))
	resident("job n+1 installs", d1, d3, d4)

	// UnpinAll ends job n+1: the LRU entry d1 goes.
	c.UnpinAll()
	resident("after UnpinAll", d3, d4)

	// Job n+2 pins d4 only; touching d3 makes it the most recently used, but
	// it is stale, so installing d5 evicts d3 rather than the pinned LRU d4.
	c.BeginJob([]Digest{d4})
	if c.Get(d3) == nil {
		t.Fatal("d3 not resident")
	}
	c.Install(d5, panelBlocks(q, depth, 5))
	resident("job n+2", d4, d5)
	if st := c.Snapshot(); st.Evictions != 3 || st.Bytes != 2*pb {
		t.Errorf("after three evictions: %+v", st)
	}
}

// BenchmarkPanelCacheBeginJob times one job's handshake (BeginJob over a
// small job's ten digests, half resident) against caches holding 1,024 and
// 65,536 panels: ending the previous job's pins is one epoch increment, so
// ns/op stays flat in the resident count.
func BenchmarkPanelCacheBeginJob(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			c := NewPanelCache(0)
			blocks := panelBlocks(1, 1, 1)
			ds := make([]Digest, n)
			for i := range ds {
				binary.LittleEndian.PutUint64(ds[i][:], uint64(i))
				c.Install(ds[i], blocks)
			}
			query := make([]Digest, 10)
			for i := range query {
				k := i * n / 10 // even i: resident
				if i%2 == 1 {
					k = n + i // odd i: absent
				}
				binary.LittleEndian.PutUint64(query[i][:], uint64(k))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.BeginJob(query)
			}
		})
	}
}

func TestPanelCacheInstallDuplicate(t *testing.T) {
	c := NewPanelCache(0)
	d := dig(42)
	first := panelBlocks(4, 2, 1)
	if !c.Install(d, first) {
		t.Fatal("first install should absorb")
	}
	if c.Install(d, panelBlocks(4, 2, 2)) {
		t.Fatal("duplicate install must not absorb")
	}
	got := c.Get(d)
	if len(got) != 2 || got[0] != first[0] {
		t.Fatal("duplicate install replaced the resident blocks")
	}
}

func TestPanelCacheConcurrent(t *testing.T) {
	// Hammer the cache from several goroutines under a tiny budget so
	// installs, handshakes and evictions interleave; the race detector is the
	// assertion.
	c := NewPanelCache(4 * PanelDataBytes(4, 2))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				d := dig(int64(g*1000 + i%13))
				if c.Get(d) == nil {
					c.Install(d, panelBlocks(4, 2, int64(i)))
				}
				if i%10 == 0 {
					c.BeginJob([]Digest{d, dig(int64(i))})
				}
				c.UnpinAll()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Snapshot(); st.Bytes > 4*PanelDataBytes(4, 2) {
		t.Fatalf("cache over budget after concurrent churn: %+v", st)
	}
}

func TestRegistry(t *testing.T) {
	a := randMatrix(2, 3, 4, 1)
	b := randMatrix(3, 2, 4, 2)
	jp := PanelsForJob(a, b)
	ds := jp.Digests()
	pb := jp.PanelBytes()

	r := NewRegistry()
	if f := r.Fraction(0, jp); f != 0 {
		t.Fatalf("empty registry fraction %v", f)
	}

	// Worker 0 holds half the job's panels.
	have := map[Digest]int64{ds[0]: pb, ds[1]: pb}
	r.Absorb(0, have, ds)
	if f := r.Fraction(0, jp); f != 0.5 {
		t.Fatalf("fraction %v, want 0.5", f)
	}
	if p, by := r.Resident(0); p != 2 || by != 2*pb {
		t.Fatalf("resident (%d, %d), want (2, %d)", p, by, 2*pb)
	}

	// A later job learns the worker no longer holds ds[1]: queried-but-absent
	// entries are dropped.
	r.Absorb(0, map[Digest]int64{ds[0]: pb}, ds)
	if f := r.Fraction(0, jp); f != 0.25 {
		t.Fatalf("fraction after partial absorb %v, want 0.25", f)
	}

	// Absorbing for one worker never touches another.
	r.Absorb(1, have, ds)
	r.Invalidate(0)
	if p, _ := r.Resident(0); p != 0 {
		t.Fatal("invalidate left residency behind")
	}
	if f := r.Fraction(1, jp); f != 0.5 {
		t.Fatalf("unrelated worker lost residency: %v", f)
	}
}
