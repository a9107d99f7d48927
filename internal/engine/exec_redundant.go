package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/matrix"
	"repro/internal/sim"
)

// ErrUnitCanceled marks a dispatched unit abandoned on purpose by the k-of-n
// gate: the job's result already landed from another copy (or a parity
// decode), so the unit's worker was told to drop it. The gate treats it as
// absorbed straggler time, not as a failure. A backend may
// additionally wrap ErrWorkerDown when the cancel handshake had to retire the
// link (a stalled worker never answers the cancel).
var ErrUnitCanceled = errors.New("unit canceled")

// UnitCanceler is optionally implemented by Backends that can ask a worker to
// abandon the unit it has in flight (internal/net's Master, via the
// wire-level cancel handshake). Without it the gate still arbitrates
// duplicate results; laggard units simply run to completion and are
// discarded.
type UnitCanceler interface {
	// CancelUnit requests that worker w abandon chunk ch. Best-effort and
	// non-blocking: the outcome surfaces on the unit's own dispatch path as
	// ErrUnitCanceled (possibly also wrapping ErrWorkerDown), as a duplicate
	// result, or not at all.
	//
	// The request must be sticky: the gate cancels whatever is in flight,
	// and a unit may still be in SendC or SendAB when its cancel arrives. An
	// implementation must remember it and honour it once the unit reaches
	// RecvC (internal/net keeps a per-link flag the result wait checks
	// first); dropping it leaves a stalled unit to be waited out.
	CancelUnit(w int, ch matrix.Chunk)
}

// RawSender is optionally implemented by Backends that address installments
// by content digest (internal/net's Master during a panel-cache epoch).
// Parity units carry pre-encoded payloads under borrowed chunk coordinates,
// so their sends must bypass digest addressing and their results must not
// promote panel residency.
type RawSender interface {
	SendABRaw(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error
	RecvCRaw(w int, ch matrix.Chunk) ([]*matrix.Block, error)
}

// ReconstructFunc solves one parity group for its missing members. members
// holds the group's committed chunk results by slot (nil where missing; the
// blocks are copies taken from C). Each received parity contributes one
// coefficient row (its per-member encoding coefficients, slot order) and its
// result blocks. It returns freshly allocated blocks per recovered slot, or
// ok=false when the system is still underdetermined. internal/coded installs
// the MDS solver here; the engine stays free of coding theory.
type ReconstructFunc func(members [][]*matrix.Block, coeffs [][]float64, parities [][]*matrix.Block) (map[int][]*matrix.Block, bool)

// RedundantUnit is one planned unit of extra work beyond the plan's own jobs.
// Job ≥ 0 replicates that plan job verbatim on Worker. Job < 0 is a parity
// unit: the worker runs an ordinary chunk job whose C seed and A panels were
// pre-encoded (at plan time, from the initial C) as the coefficient-weighted
// sum of the group members' payloads, under the borrowed chunk coordinates of
// the first member — B panels are shared by construction, so the returned
// "chunk" equals the same weighted sum of the members' true results.
type RedundantUnit struct {
	Worker int
	Job    int // ≥ 0: replica of that plan job; < 0: parity unit

	// Parity-only fields.
	Group   int               // parity group id; all units of a group share Members
	Members []int             // plan job indices the parity spans
	Coeffs  []float64         // per-member encoding coefficients, Members order
	Chunk   matrix.Chunk      // borrowed geometry (the first member's chunk)
	Panels  [][2]int          // installment schedule, identical to the members'
	CSeed   []*matrix.Block   // pre-encoded C payload, row-major over Chunk
	ASeeds  [][]*matrix.Block // pre-encoded A panels per installment
}

// RedundancyStats counts what the k-of-n gate did during a run.
type RedundancyStats struct {
	Units         int64 // redundant units dispatched (replicas, parities, speculative copies)
	DuplicateWins int64 // results discarded because the job had already committed
	WastedBytes   int64 // wire-size bytes of those discarded results
	Decodes       int64 // chunk results reconstructed from parity
	Absorbed      int64 // in-flight units wire-cancelled after their job completed elsewhere
	Speculative   int64 // of Units, copies claimed dynamically by idle workers
}

// Redundancy configures Execute's k-of-n gate and collects its stats.
// Units carries the planned redundancy (internal/coded builds it from adapt
// estimates); an empty Units still enables the gate's dynamic speculation,
// which is what absorbs a straggler no placement predicted.
type Redundancy struct {
	Mode  string // "replicated" or "coded"; informational
	Units []RedundantUnit
	// Reconstruct decodes parity groups; required for parity units to be
	// usable (internal/coded always sets it).
	Reconstruct ReconstructFunc

	mu sync.Mutex
	st RedundancyStats
}

// Stats returns a snapshot of the run's redundancy counters; valid during
// and after execution.
func (r *Redundancy) Stats() RedundancyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

func (r *Redundancy) bump(f func(*RedundancyStats)) {
	r.mu.Lock()
	f(&r.st)
	r.mu.Unlock()
}

// copyLimit caps the concurrent copies of one job claimed through the gate
// (planned replicas and the dynamic idle-worker speculation; the primary
// dispatch is exempt): a primary plus one backup, the classic
// speculative-execution bound.
const copyLimit = 2

// wasted counts one discarded duplicate result and its wire-size bytes.
func (r *Redundancy) wasted(blocks []*matrix.Block) {
	var n int64
	if len(blocks) > 0 {
		n = int64(len(blocks)) * int64(matrix.BlockWireSize(blocks[0].Q))
	}
	r.bump(func(st *RedundancyStats) {
		st.DuplicateWins++
		st.WastedBytes += n
	})
	mDuplicateWins.Inc()
	mWastedBytes.Add(n)
}

// parityRes is one received parity result, held until its group decodes.
type parityRes struct {
	coeffs []float64
	blocks []*matrix.Block
}

// groupState tracks one parity group's membership and received parities.
type groupState struct {
	members []int
	results []parityRes
}

// initGate sets up the k-of-n gate: copy counters, parity groups, and each
// planned unit queued on its worker behind that worker's plan jobs (the
// systematic path runs first).
func (x *executor) initGate() {
	x.copies = make([]int, len(x.jobs))
	x.groups = make(map[int]*groupState)
	for i := range x.red.Units {
		ru := &x.red.Units[i]
		ws := x.ws[ru.Worker]
		ws.queue = append(ws.queue, unit{job: ru.Job, ru: ru})
		if ru.Job < 0 && x.groups[ru.Group] == nil {
			materializePanels(nil, x.b, ru.Chunk, ru.Panels)
			x.groups[ru.Group] = &groupState{members: ru.Members}
		}
	}
}

// admitLocked decides whether a queued unit still runs under the gate: a
// primary unless its job committed (it is exempt from the copy cap), a
// replica while its job is pending and under the cap (counted), a parity
// unit while its group has a member missing. The bool is false for a skip.
func (x *executor) admitLocked(u unit) (counted, ok bool) {
	switch {
	case u.ru == nil:
		return false, !x.committed[u.job]
	case u.job >= 0:
		if x.committed[u.job] || x.copies[u.job] >= copyLimit {
			return false, false
		}
		x.copies[u.job]++
		counted = true
	case len(x.missingLocked(x.groups[u.ru.Group])) == 0:
		return false, false
	}
	x.red.bump(func(st *RedundancyStats) { st.Units++ })
	mRedundantUnits.Inc()
	return counted, true
}

// claimLocked picks a speculative copy for an idle worker: the pending job
// with the fewest live copies (lowest index on ties, for determinism),
// subject to the copy cap. It returns -1 when nothing is claimable.
func (x *executor) claimLocked() int {
	best := -1
	for ji := range x.jobs {
		if x.committed[ji] || x.copies[ji] >= copyLimit {
			continue
		}
		if best < 0 || x.copies[ji] < x.copies[best] {
			best = ji
		}
	}
	if best < 0 {
		// Every pending job is at its copy cap: decode is now the only way
		// forward for whatever a parity can cover.
		x.tryDecodeAllLocked()
		return -1
	}
	x.copies[best]++
	x.red.bump(func(st *RedundancyStats) { st.Units++; st.Speculative++ })
	mRedundantUnits.Inc()
	if x.copies[best] >= copyLimit {
		// This claim saturated the job's copy cap: if every copy stalls, no
		// future claim will rescue it, so parity decode becomes eligible now.
		x.tryDecodeAllLocked()
		if x.committed[best] {
			x.copies[best]--
			return -1
		}
	}
	return best
}

// cancelLosersLocked wire-cancels every in-flight unit whose outcome can no
// longer matter: copies of committed jobs, and parity units once everything
// committed (a parity that lands while other groups are still open is at
// worst a duplicate win).
func (x *executor) cancelLosersLocked() {
	for w, ws := range x.ws {
		fl := &ws.fl
		if !fl.active || fl.canceled {
			continue
		}
		if (fl.job >= 0 && x.committed[fl.job]) || (fl.job < 0 && x.pending == 0) {
			fl.canceled = true
			if x.uc != nil {
				x.uc.CancelUnit(w, fl.ch)
			}
		}
	}
}

// commitParityLocked stores one parity result and attempts its group decode.
func (x *executor) commitParityLocked(ru *RedundantUnit, blocks []*matrix.Block) error {
	gs := x.groups[ru.Group]
	if len(x.missingLocked(gs)) == 0 {
		x.red.wasted(blocks)
		return nil
	}
	gs.results = append(gs.results, parityRes{coeffs: ru.Coeffs, blocks: blocks})
	return x.tryDecodeLocked(ru.Group)
}

func (x *executor) missingLocked(gs *groupState) []int {
	var out []int
	for s, ji := range gs.members {
		if !x.committed[ji] {
			out = append(out, s)
		}
	}
	return out
}

// tryDecodeAllLocked sweeps every parity group; the per-group saturation
// guard in tryDecodeLocked keeps this cheap and conservative.
func (x *executor) tryDecodeAllLocked() {
	for gid := range x.groups {
		if err := x.tryDecodeLocked(gid); err != nil {
			x.failLocked(err)
		}
	}
}

// tryDecodeLocked reconstructs a group's uncommitted members once enough
// parity results have arrived, committing each recovery exactly as a job
// result.
func (x *executor) tryDecodeLocked(gid int) error {
	if x.red.Reconstruct == nil {
		return nil
	}
	gs := x.groups[gid]
	missing := x.missingLocked(gs)
	if len(missing) == 0 || len(gs.results) < len(missing) {
		return nil
	}
	// Decode is strictly a last resort: only reconstruct members whose
	// systematic avenue is exhausted — the speculative copy cap reached by
	// copies that are still in flight (stalled stragglers hold their slots).
	// A member that can still be claimed keeps its chance to land verbatim,
	// which is what keeps straggler-free runs bitwise-identical.
	for _, s := range missing {
		if x.copies[gs.members[s]] < copyLimit {
			return nil
		}
	}
	members := make([][]*matrix.Block, len(gs.members))
	for s, ji := range gs.members {
		if x.committed[ji] {
			members[s] = cloneChunk(x.c, x.jobs[ji].Chunk, nil, nil)
		}
	}
	coeffs := make([][]float64, len(gs.results))
	parities := make([][]*matrix.Block, len(gs.results))
	for i, res := range gs.results {
		coeffs[i] = res.coeffs
		parities[i] = res.blocks
	}
	recovered, ok := x.red.Reconstruct(members, coeffs, parities)
	if !ok {
		return nil
	}
	for slot, blocks := range recovered {
		if slot < 0 || slot >= len(gs.members) {
			return fmt.Errorf("engine: parity decode of group %d produced slot %d of %d", gid, slot, len(gs.members))
		}
		ji := gs.members[slot]
		if x.committed[ji] {
			continue
		}
		if err := writeChunk(x.c, x.jobs[ji].Chunk, blocks); err != nil {
			return err
		}
		x.committed[ji] = true
		x.pending--
		x.red.bump(func(st *RedundancyStats) { st.Decodes++ })
		mDecodes.Inc()
	}
	x.cancelLosersLocked()
	x.wakeLocked()
	return nil
}

// cloneBlocks deep-copies a block list (retaining backends mutate the chunk
// payload they are handed, and pre-encoded seeds must survive re-dispatch).
func cloneBlocks(blocks []*matrix.Block) []*matrix.Block {
	out := make([]*matrix.Block, len(blocks))
	for i, blk := range blocks {
		out[i] = blk.Clone()
	}
	return out
}

// validateRedundancy checks red.Units against the validated plan: worker and
// job ranges, and for parity units the full payload geometry — group
// consistency, seed shapes, and member compatibility (same chunk shape, B
// columns, and installment schedule, which is what makes the weighted-sum
// algebra hold).
func validateRedundancy(red *Redundancy, jobs []sim.PlanJob, nw, t int, c *matrix.BlockMatrix) error {
	groupMembers := make(map[int][]int)
	for i := range red.Units {
		ru := &red.Units[i]
		switch {
		case ru.Worker < 0 || ru.Worker >= nw:
			return fmt.Errorf("engine: redundant unit %d references worker %d of %d", i, ru.Worker, nw)
		case ru.Job >= len(jobs):
			return fmt.Errorf("engine: redundant unit %d replicates job %d of %d", i, ru.Job, len(jobs))
		case ru.Job >= 0:
			continue
		case len(ru.Members) == 0 || len(ru.Coeffs) != len(ru.Members):
			return fmt.Errorf("engine: parity unit %d has %d members, %d coefficients", i, len(ru.Members), len(ru.Coeffs))
		case len(ru.CSeed) != ru.Chunk.Blocks() || len(ru.ASeeds) != len(ru.Panels):
			return fmt.Errorf("engine: parity unit %d seeds %d C blocks and %d installments for chunk %v with %d", i, len(ru.CSeed), len(ru.ASeeds), ru.Chunk, len(ru.Panels))
		}
		if prev, ok := groupMembers[ru.Group]; ok && !slices.Equal(prev, ru.Members) {
			return fmt.Errorf("engine: parity group %d has inconsistent member sets", ru.Group)
		}
		groupMembers[ru.Group] = ru.Members
		if err := checkJob(ru.Chunk, ru.Panels, t, c); err != nil {
			return fmt.Errorf("engine: parity unit %d: %w", i, err)
		}
		for pi, p := range ru.Panels {
			if len(ru.ASeeds[pi]) != ru.Chunk.H*(p[1]-p[0]) {
				return fmt.Errorf("engine: parity unit %d installment %d seeds %d A blocks, want %d", i, pi, len(ru.ASeeds[pi]), ru.Chunk.H*(p[1]-p[0]))
			}
		}
		for _, ji := range ru.Members {
			if ji < 0 || ji >= len(jobs) {
				return fmt.Errorf("engine: parity unit %d member references job %d of %d", i, ji, len(jobs))
			}
			if mc := jobs[ji].Chunk; mc.H != ru.Chunk.H || mc.W != ru.Chunk.W || mc.Col0 != ru.Chunk.Col0 || !slices.Equal(jobs[ji].Panels, ru.Panels) {
				return fmt.Errorf("engine: parity unit %d member job %d (chunk %v) is incompatible with parity chunk %v or its installments", i, ji, mc, ru.Chunk)
			}
		}
	}
	return nil
}
