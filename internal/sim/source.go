package sim

import (
	"fmt"

	"repro/internal/matrix"
)

// MakeStandardJob builds a job under the paper's optimized memory layout: the
// C chunk ch is processed in t installments, installment k carrying the k-th
// row of W B blocks plus the k-th column of H A blocks and enabling H·W
// updates.
func MakeStandardJob(ch matrix.Chunk, t, seq int) Job {
	if t <= 0 {
		panic(fmt.Sprintf("sim: MakeStandardJob t=%d", t))
	}
	insts := make([]Installment, t)
	for k := range insts {
		insts[k] = Installment{Blocks: ch.H + ch.W, Updates: int64(ch.H) * int64(ch.W), K0: k, K1: k + 1}
	}
	return Job{Chunk: ch, Installments: insts, Seq: seq}
}

// MakeBMMJob builds a job under Toledo's memory layout: the chunk is
// processed in ⌈t/depth⌉ panel steps; step j moves depth_j·(H+W) input blocks
// (an H×depth_j panel of A and a depth_j×W panel of B) and enables
// depth_j·H·W updates, the last panel possibly shallower.
func MakeBMMJob(ch matrix.Chunk, t, depth, seq int) Job {
	if depth <= 0 || t <= 0 {
		panic(fmt.Sprintf("sim: MakeBMMJob depth=%d t=%d", depth, t))
	}
	var insts []Installment
	for k := 0; k < t; k += depth {
		d := min(depth, t-k)
		insts = append(insts, Installment{
			Blocks:  d * (ch.H + ch.W),
			Updates: int64(d) * int64(ch.H) * int64(ch.W),
			K0:      k, K1: k + d,
		})
	}
	return Job{Chunk: ch, Installments: insts, Seq: seq}
}

// Static is a Source with precomputed per-worker job queues.
type Static struct {
	Queues [][]Job
	pos    []int
}

// NewStatic wraps per-worker queues (index = worker).
func NewStatic(queues [][]Job) *Static {
	return &Static{Queues: queues, pos: make([]int, len(queues))}
}

// Next implements Source.
func (s *Static) Next(w int) (Job, bool) {
	if w >= len(s.Queues) || s.pos[w] >= len(s.Queues[w]) {
		return Job{}, false
	}
	j := s.Queues[w][s.pos[w]]
	s.pos[w]++
	return j, true
}

// Carver hands out work on demand, respecting the paper's rule that workers
// receive only full block-column groups: when worker w needs work and has no
// band in progress, it claims the next min(width[w], remaining) columns and
// then walks down that band in chunks of at most height[w] rows.
type Carver struct {
	R, S, T int
	// Width and Height give each worker's chunk geometry (μ_i for the
	// optimized layout, β_i for BMM).
	Width, Height []int
	// Make builds the job for a carved chunk (depends on the layout).
	Make func(worker int, ch matrix.Chunk, t, seq int) Job

	nextCol  int   // first unclaimed block column
	bandCol0 []int // start column of each worker's current band
	bandW    []int // width of each worker's current band (0 = none)
	rowsDone []int // rows already carved in the current band
	seq      int
}

// NewCarver creates a dynamic source over an r×s block grid with t inner
// steps. width/height are per-worker chunk edges; mk builds jobs.
func NewCarver(r, s, t int, width, height []int, mk func(worker int, ch matrix.Chunk, t, seq int) Job) *Carver {
	return &Carver{
		R: r, S: s, T: t, Width: width, Height: height, Make: mk,
		bandCol0: make([]int, len(width)),
		bandW:    make([]int, len(width)),
		rowsDone: make([]int, len(width)),
	}
}

// CopyFrom makes c an independent copy of src's allocation state, reusing
// c's slices, so selection heuristics can explore hypothetical assignments
// exactly on one scratch carver.
func (c *Carver) CopyFrom(src *Carver) {
	bandCol0, bandW, rowsDone := c.bandCol0, c.bandW, c.rowsDone
	*c = *src
	c.bandCol0 = append(bandCol0[:0], src.bandCol0...)
	c.bandW = append(bandW[:0], src.bandW...)
	c.rowsDone = append(rowsDone[:0], src.rowsDone...)
}

// Peek returns the chunk Next(w) would carve, without committing anything.
// Selection heuristics use it to evaluate candidates.
func (c *Carver) Peek(w int) (matrix.Chunk, bool) {
	if c.Width[w] <= 0 || c.Height[w] <= 0 {
		return matrix.Chunk{}, false
	}
	col0, wd, rows := c.bandCol0[w], c.bandW[w], c.rowsDone[w]
	if wd == 0 {
		if c.nextCol >= c.S {
			return matrix.Chunk{}, false
		}
		col0, wd, rows = c.nextCol, min(c.Width[w], c.S-c.nextCol), 0
	}
	return matrix.Chunk{Row0: rows, Col0: col0, H: min(c.Height[w], c.R-rows), W: wd}, true
}

// Next implements Source.
func (c *Carver) Next(w int) (Job, bool) {
	ch, ok := c.Peek(w)
	if !ok {
		return Job{}, false
	}
	if c.bandW[w] == 0 {
		c.bandCol0[w] = ch.Col0
		c.bandW[w] = ch.W
		c.rowsDone[w] = 0
		c.nextCol += ch.W
	}
	job := c.Make(w, ch, c.T, c.seq)
	c.seq++
	c.rowsDone[w] += ch.H
	if c.rowsDone[w] >= c.R {
		c.bandW[w] = 0
	}
	return job, true
}

// Remaining reports how many block columns are still unclaimed.
func (c *Carver) Remaining() int { return c.S - c.nextCol }
