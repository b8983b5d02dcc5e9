package solver

// Hash-consed expression interning. Every expression the solver touches is
// resolved to a per-solver internEntry exactly once; the entry caches the
// three derived forms the hot path used to recompute per query:
//
//   - the canonical rendering (the unit of queryKey — the verdict-cache and
//     persisted-cache key format is unchanged, it is now assembled from
//     cached strings instead of re-rendered trees);
//   - the linearisation (linAtom or "outside the fragment");
//   - the sorted variable list (the unit of conjState.varOrder).
//
// Entries also carry a stable per-solver ID. IDs order by first-intern time,
// which is scheduling-dependent under concurrent analysis workers — they are
// therefore never persisted and never compared across solvers; their only
// uses are set-membership keys (the split-gate memo, prefix subsumption),
// which are order-insensitive.
//
// Unification is structural: a pointer-cache fast path (path-constraint
// slices share expression pointers across sibling states, so this hits
// almost always) backed by hash buckets resolved with expr.Equal, so two
// structurally equal trees always map to one entry and an entry can never
// alias two distinct expressions.

import (
	"sync"

	"achilles/internal/expr"
)

// internEntry is the canonical per-solver record of one structurally
// distinct expression. Immutable after construction.
type internEntry struct {
	id     uint64
	e      *expr.Expr
	render string   // e.String(), computed once
	la     *linAtom // linearisation; nil when e is outside the linear fragment
	vars   []string // sorted variable names of e
}

// internArena unifies expressions for one Solver. Safe for concurrent use:
// the pointer cache is a sync.Map (lock-free hits), creation and structural
// unification run under one mutex.
type internArena struct {
	byPtr  sync.Map // *expr.Expr -> *internEntry
	mu     sync.Mutex
	byHash map[uint64][]*internEntry
	nextID uint64
	// ckeyIDs numbers distinct linear-combination fingerprints from 1 so
	// linearConflict can compare combinations by integer (see linAtom.ckeyID).
	ckeyIDs map[string]uint32
}

func newInternArena() *internArena {
	return &internArena{
		byHash:  make(map[uint64][]*internEntry),
		ckeyIDs: make(map[string]uint32),
	}
}

// intern resolves e to its canonical entry, creating it on first sight.
func (a *internArena) intern(e *expr.Expr) *internEntry {
	if en, ok := a.byPtr.Load(e); ok {
		return en.(*internEntry)
	}
	a.mu.Lock()
	h := e.Hash()
	for _, en := range a.byHash[h] {
		if expr.Equal(en.e, e) {
			a.mu.Unlock()
			// Remember this alias pointer too: the next lookup through the
			// same tree is then lock-free.
			a.byPtr.Store(e, en)
			return en
		}
	}
	en := &internEntry{id: a.nextID, e: e, render: e.String()}
	a.nextID++
	en.la, _ = linearise(e)
	if en.la != nil && en.la.ckey != "" {
		id, ok := a.ckeyIDs[en.la.ckey]
		if !ok {
			id = uint32(len(a.ckeyIDs) + 1)
			a.ckeyIDs[en.la.ckey] = id
		}
		en.la.ckeyID = id
	}
	en.vars = expr.Vars(e)
	a.byHash[h] = append(a.byHash[h], en)
	a.mu.Unlock()
	a.byPtr.Store(e, en)
	return en
}

// size reports the number of distinct interned expressions.
func (a *internArena) size() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.nextID)
}

// internAll interns a constraint slice in order.
func (s *Solver) internAll(constraints []*expr.Expr) []*internEntry {
	out := make([]*internEntry, len(constraints))
	for i, c := range constraints {
		out[i] = s.arena.intern(c)
	}
	return out
}

// mergeVars returns the sorted union of the entries' variable names — the
// same list expr.VarsOf computes by walking the trees, assembled from the
// cached per-entry sorted lists instead.
func mergeVars(entries []*internEntry) []string {
	// k-way merge over already-sorted lists; duplicates are dropped as they
	// surface. The lists are tiny (message fields + a few locals), so a
	// linear scan for the minimum beats heap bookkeeping.
	idx := make([]int, len(entries))
	var out []string
	for {
		best := ""
		found := false
		for i, en := range entries {
			for idx[i] < len(en.vars) && len(out) > 0 && en.vars[idx[i]] == out[len(out)-1] {
				idx[i]++
			}
			if idx[i] < len(en.vars) {
				if !found || en.vars[idx[i]] < best {
					best, found = en.vars[idx[i]], true
				}
			}
		}
		if !found {
			return out
		}
		out = append(out, best)
	}
}
