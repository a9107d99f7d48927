package cache

import (
	"container/list"
	"sync"
)

// Registry is the master-side per-worker resident-set tracker: which panel
// digests each fleet worker was last known to hold, and how many bytes they
// amount to. Resource selection scores candidates with Fraction, biasing a
// job toward the subset already holding its operands.
//
// The registry is advisory by construction. Transfer skipping is decided by
// the per-job have/need handshake against the worker itself, so the registry
// being stale — a worker quietly evicted a panel, or crashed and came back
// with an empty cache — can misprice affinity for one scheduling pass but
// can never corrupt a result. Invalidate keeps it honest on the one
// transition the fleet actually observes: a worker going down (its re-dialed
// successor is a fresh session whose cache contents must be re-discovered by
// the next job's handshake).
//
// Each worker's set is kept in absorb order, so Trim can hold it to the
// worker's cache budget as its handshake reported it: a long-lived daemon's
// registry is then bounded by the fleet's cache budgets, not by the jobs it
// has served.
type Registry struct {
	mu  sync.Mutex
	res map[int]*residentSet // fleet worker → believed-resident panels
}

// residentSet is one worker's believed-resident panels, oldest absorbed at
// the front of ll.
type residentSet struct {
	ll    list.List // of resident
	at    map[Digest]*list.Element
	bytes int64
}

type resident struct {
	d     Digest
	bytes int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{res: make(map[int]*residentSet)}
}

// Absorb folds one finished job's exact knowledge about worker w into the
// registry: every digest in have (digest → payload bytes) is now resident
// there, and every digest in queried but not in have is known absent (the
// handshake asked and the worker said no, or the master never promoted it) —
// those are removed so an evicted panel stops attracting jobs. The digests in
// have become w's newest entries.
func (r *Registry) Absorb(w int, have map[Digest]int64, queried []Digest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	if set == nil {
		set = &residentSet{at: make(map[Digest]*list.Element, len(have))}
		r.res[w] = set
	}
	for _, d := range queried {
		e := set.at[d]
		if e != nil {
			set.bytes -= e.Value.(resident).bytes
			set.ll.Remove(e)
			delete(set.at, d)
		}
		if b, ok := have[d]; ok {
			set.at[d] = set.ll.PushBack(resident{d, b})
			set.bytes += b
		}
	}
}

// Trim drops worker w's oldest absorbed panels until the rest fit budget,
// the worker cache's payload byte budget (≤0: unbounded). The worker's LRU
// would have evicted those panels first, so a set trimmed after every Absorb
// never claims more than the worker can hold.
func (r *Registry) Trim(w int, budget int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	for set != nil && budget > 0 && set.bytes > budget {
		old := set.ll.Remove(set.ll.Front()).(resident)
		delete(set.at, old.d)
		set.bytes -= old.bytes
	}
}

// Invalidate forgets everything about worker w. Call it when the worker
// leaves the fleet's live set: a crashed worker's re-dialed session is a new
// process with an empty cache, and even a survivor recycled after a failed
// job is cheaper to re-discover than to trust.
func (r *Registry) Invalidate(w int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.res, w)
}

// Fraction scores worker w's affinity for a job: the fraction of the job's
// distinct panel bytes already resident on w, in [0, 1]. Zero when nothing
// is known (or jp is nil), one when every panel is already there.
func (r *Registry) Fraction(w int, jp *JobPanels) float64 {
	if jp == nil {
		return 0
	}
	ds := jp.Digests()
	if len(ds) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	if set == nil || len(set.at) == 0 {
		return 0
	}
	have := 0
	for _, d := range ds {
		if _, ok := set.at[d]; ok {
			have++
		}
	}
	return float64(have) / float64(len(ds))
}

// Resident reports how many panels (and payload bytes) worker w is believed
// to hold.
func (r *Registry) Resident(w int) (panels int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	if set == nil {
		return 0, 0
	}
	return len(set.at), set.bytes
}
