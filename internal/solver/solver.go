// Package solver implements the SMT-lite decision procedure Achilles uses in
// place of the STP/Z3 solvers from the paper.
//
// The solver decides satisfiability of conjunctions of boolean expressions
// over 64-bit integers. The fragment it targets is the one the Achilles
// pipeline produces: linear (in)equalities and disequalities over message
// fields and client inputs, combined with the small disjunctions produced by
// the negate operator. Non-linear atoms (division, remainder, products of
// variables) are supported through bounded enumeration and final-model
// verification rather than propagation.
//
// The procedure is:
//
//  1. flatten the query into conjunctive atoms and disjunctions,
//  2. DPLL-style splitting over disjunctions,
//  3. for pure conjunctions: interval-domain propagation over the linear
//     atoms (including back-substitution through equalities, which solves
//     checksum chains directly), then
//  4. systematic search that enumerates the smallest domain first, falling
//     back to boundary-value heuristics when a domain is too large to
//     enumerate.
//
// Every Sat answer carries a model that has been re-verified by evaluating
// all original constraints, so Sat results are sound unconditionally. Unsat
// answers are sound because enumeration is exhaustive whenever domains are
// finite and within budget; otherwise the solver answers Unknown, mirroring
// how the paper treats Z3's quantifier-heuristic failures (§3.2).
//
// A Solver is safe for concurrent use: the search state is allocated per
// query, statistics are atomic counters, and verdicts are memoised in a
// sharded (mutex-striped) formula→verdict cache so that repeated queries —
// in particular the differentFrom and Trojan checks issued by concurrent
// analysis workers — hit memory instead of re-solving.
package solver

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"achilles/internal/expr"
)

// Version identifies the decision-procedure revision. It is stamped into
// persisted verdict caches and folded into audit input fingerprints: bump it
// whenever a change can alter a verdict (fragment semantics, enumeration
// policy, Unknown treatment), so stale on-disk caches are discarded at load
// instead of replaying verdicts this solver would no longer produce.
//
// solver/2: interned expressions, incremental prefix handles and the
// split-gate memo (see intern.go, prefix.go). The decision procedure is
// designed to be verdict- and model-preserving, but the fast path
// introduces cross-query state that the solver/1 revision did not have, so
// caches written by solver/1 are refused rather than replayed.
const Version = "solver/2"

// Result is the outcome of a satisfiability check.
type Result int

const (
	// Unsat means no assignment satisfies the constraints.
	Unsat Result = iota
	// Sat means a verified model was found.
	Sat
	// Unknown means the search budget was exhausted or the constraints left
	// a domain too large to enumerate.
	Unknown
)

// String returns "unsat", "sat" or "unknown".
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Stats accumulates counters across queries; read them for the evaluation
// harness, reset them with ResetStats.
type Stats struct {
	Queries      int // Check calls
	Decisions    int // variable assignments tried
	Propagations int // domain-tightening steps
	Splits       int // disjunction branches explored
	Verified     int // full models verified
	Unknowns     int // queries answered Unknown
	CacheHits    int // queries answered from the verdict cache
	CacheMisses  int // queries that had to be solved

	// Reverified counts loaded (persisted) verdicts confirmed against the
	// live query — Sat models re-evaluated, sampled Unsat/Unknown verdicts
	// re-solved. ReverifyFailed counts loaded verdicts the live check
	// contradicted; they are replaced, never served.
	Reverified     int
	ReverifyFailed int

	// Fast-path counters (see intern.go, feasible): Interned is the number
	// of structurally distinct expressions in the arena, FeasibleHits the
	// number of split-node feasibility gates answered "not refuted" from
	// the split-gate memo. LearnedSets and LearnedHits always read 0: the
	// solver keeps no learned conflict-set index; the fields remain for
	// existing readers of Stats.
	Interned     int
	LearnedSets  int
	LearnedHits  int
	FeasibleHits int
}

// counters is the internal, concurrency-safe representation of Stats.
type counters struct {
	queries        atomic.Int64
	decisions      atomic.Int64
	propagations   atomic.Int64
	splits         atomic.Int64
	verified       atomic.Int64
	unknowns       atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	reverified     atomic.Int64
	reverifyFailed atomic.Int64
	feasibleHits   atomic.Int64
}

// Options configure a Solver.
type Options struct {
	// MaxDecisions bounds the total assignments tried per query before the
	// solver answers Unknown. Zero means the default (200000).
	MaxDecisions int
	// MaxEnumDomain is the largest domain size that is exhaustively
	// enumerated; larger domains use boundary heuristics only. Zero means
	// the default (1 << 16).
	MaxEnumDomain int64
	// DisableCache turns the verdict cache off; every Check solves afresh.
	DisableCache bool
}

// The verdict cache has cacheShards mutex stripes of at most
// cacheShardEntries entries each; one arbitrary entry is evicted on
// overflow.
const (
	cacheShards       = 64
	cacheShardEntries = 4096
)

// Solver decides satisfiability of constraint conjunctions. A Solver may be
// reused across queries and shared between goroutines: the search state is
// per-query, statistics are atomic, and the verdict cache is mutex-striped.
type Solver struct {
	opts        Options
	stats       counters
	cache       *verdictCache // nil when disabled
	loadedProbe atomic.Int64  // loaded Unsat/Unknown hits, for sampling
	arena       *internArena  // hash-consed expressions (intern.go)
	propOK      *atomSetMemo  // non-refuted split-gate memo (see feasible)
}

// New returns a Solver with the given options.
func New(opts Options) *Solver {
	if opts.MaxDecisions == 0 {
		opts.MaxDecisions = 200000
	}
	if opts.MaxEnumDomain == 0 {
		opts.MaxEnumDomain = 1 << 16
	}
	s := &Solver{opts: opts, arena: newInternArena(), propOK: newAtomSetMemo()}
	if !opts.DisableCache {
		s.cache = newVerdictCache(cacheShards, cacheShardEntries)
	}
	return s
}

// Default returns a solver with default options.
func Default() *Solver { return New(Options{}) }

// Stats returns a copy of the accumulated statistics.
func (s *Solver) Stats() Stats {
	return Stats{
		Queries:      int(s.stats.queries.Load()),
		Decisions:    int(s.stats.decisions.Load()),
		Propagations: int(s.stats.propagations.Load()),
		Splits:       int(s.stats.splits.Load()),
		Verified:     int(s.stats.verified.Load()),
		Unknowns:     int(s.stats.unknowns.Load()),
		CacheHits:    int(s.stats.cacheHits.Load()),
		CacheMisses:  int(s.stats.cacheMisses.Load()),

		Reverified:     int(s.stats.reverified.Load()),
		ReverifyFailed: int(s.stats.reverifyFailed.Load()),

		Interned:     s.arena.size(),
		FeasibleHits: int(s.stats.feasibleHits.Load()),
	}
}

// ResetStats zeroes the statistics counters.
func (s *Solver) ResetStats() {
	s.stats.queries.Store(0)
	s.stats.decisions.Store(0)
	s.stats.propagations.Store(0)
	s.stats.splits.Store(0)
	s.stats.verified.Store(0)
	s.stats.unknowns.Store(0)
	s.stats.cacheHits.Store(0)
	s.stats.cacheMisses.Store(0)
	s.stats.reverified.Store(0)
	s.stats.reverifyFailed.Store(0)
	s.stats.feasibleHits.Store(0)
}

// satLimit is the saturation bound for interval arithmetic: all domain
// endpoints are clamped to [-satLimit, satLimit] so bound computation cannot
// overflow int64.
const satLimit = int64(1) << 62

// Check decides the conjunction of the given constraints. On Sat, the
// returned model assigns every variable occurring in the constraints and has
// been verified by evaluation.
//
// Entries restored by LoadCache are not served blindly: a loaded Sat verdict
// is re-verified by evaluating the live query under its stored model, and a
// deterministic 1-in-reverifySample of loaded Unsat/Unknown verdicts is
// re-solved and compared. A loaded verdict the live check contradicts is
// replaced and counted in Stats.ReverifyFailed.
func (s *Solver) Check(constraints []*expr.Expr) (Result, expr.Env) {
	return s.CheckCtx(context.Background(), constraints)
}

// CheckCtx is Check with cancellation: when ctx is cancelled (or its
// deadline passes) mid-search, the query aborts and answers Unknown —
// callers already treat Unknown conservatively, so an aborted query can
// never flip a verdict, only withhold one. A verdict produced under a
// cancelled context is NOT memoised: caching it would poison the verdict
// cache with budget-dependent Unknowns that outlive the cancellation.
func (s *Solver) CheckCtx(ctx context.Context, constraints []*expr.Expr) (Result, expr.Env) {
	entries := s.internAll(constraints)
	keyFn := func() string { return queryKeyInterned(entries) }
	constraintsFn := func() []*expr.Expr { return constraints }
	return s.checkCached(ctx, keyFn, constraintsFn, func(ctx context.Context) (Result, expr.Env) {
		return s.check(ctx, flattenQuery(s, entries))
	})
}

// checkCached runs the shared cache protocol around one solve: stats, key
// lookup, loaded-entry re-verification, the cancellation guard and the final
// memoisation. keyFn produces the cache key (assembled from cached interned
// renderings — byte-identical to the historical queryKey format),
// constraintsFn materialises the original expressions (consulted only when a
// loaded Sat model must be re-evaluated), and solve produces a fresh
// verdict.
func (s *Solver) checkCached(ctx context.Context, keyFn func() string,
	constraintsFn func() []*expr.Expr, solve func(context.Context) (Result, expr.Env)) (Result, expr.Env) {

	if ctx == nil {
		ctx = context.Background()
	}
	s.stats.queries.Add(1)
	var key string
	var loaded *verdict
	if s.cache != nil {
		key = keyFn()
		if ent, ok := s.cache.get(key); ok {
			if !ent.loaded || s.trustLoaded(key, ent, constraintsFn()) {
				s.stats.cacheHits.Add(1)
				return ent.res, ent.model.Clone()
			}
			loaded = &ent // distrusted: re-solve and compare below
		}
		s.stats.cacheMisses.Add(1)
	}
	res, model := solve(ctx)
	if ctx.Err() != nil && res == Unknown {
		// Aborted mid-search: the Unknown reflects the cancellation, not the
		// query. Report it, but neither cache it nor let it indict a loaded
		// verdict under re-verification.
		return res, model
	}
	if loaded != nil {
		// A Sat entry only reaches the re-solve path when its stored model
		// failed evaluation — that is a failure even if the fresh verdict is
		// Sat again. Unsat/Unknown entries reach it as the re-solve sample
		// and fail only on a verdict flip.
		if loaded.res == Sat || loaded.res != res {
			s.stats.reverifyFailed.Add(1)
		} else {
			s.stats.reverified.Add(1)
		}
	}
	if s.cache != nil {
		s.cache.put(key, verdict{res: res, model: model.Clone()})
	}
	return res, model
}

// reverifySample is the sampling period for loaded Unsat/Unknown verdicts:
// the first and every reverifySample-th such hit is re-solved instead of
// trusted, so a poisoned or stale cache file is noticed early without
// re-proving the whole file.
const reverifySample = 16

// trustLoaded decides whether a verdict restored from disk may be served
// as-is. Sat entries are verified unconditionally by evaluating the query
// under the stored model — cheap, and it makes a corrupt model harmless (the
// query just goes back to the solver). Unsat and Unknown entries carry no
// checkable witness, so a sampled subset is sent back to the solver instead;
// Check compares the fresh verdict against the loaded one. Trusted entries
// are promoted to regular entries, paying the verification cost once.
func (s *Solver) trustLoaded(key string, ent verdict, constraints []*expr.Expr) bool {
	switch ent.res {
	case Sat:
		for _, c := range constraints {
			v, err := expr.EvalBool(c, ent.model)
			if err != nil || !v {
				return false
			}
		}
		s.stats.reverified.Add(1)
	default:
		if s.loadedProbe.Add(1)%reverifySample == 1 {
			return false
		}
	}
	s.cache.put(key, verdict{res: ent.res, model: ent.model})
	return true
}

// flatQuery is one query flattened into interned conjunctive atoms and
// disjunctions.
type flatQuery struct {
	conj    []*internEntry
	disj    []*internEntry
	refuted bool // a literal false constraint was found
}

// flattenQuery flattens the top-level constraint entries of a query.
func flattenQuery(s *Solver, entries []*internEntry) flatQuery {
	var fq flatQuery
	for _, en := range entries {
		if !s.flattenInto(en.e, &fq.conj, &fq.disj) {
			fq.refuted = true
			return fq
		}
	}
	return fq
}

// check solves one flattened query without consulting the cache.
func (s *Solver) check(ctx context.Context, fq flatQuery) (Result, expr.Env) {
	if fq.refuted {
		return Unsat, nil
	}
	budget := s.opts.MaxDecisions
	res, model := s.solve(ctx, fq.conj, fq.disj, &budget)
	if res == Unknown {
		s.stats.unknowns.Add(1)
	}
	return res, model
}

// CheckExpr decides a single (possibly compound) boolean expression.
func (s *Solver) CheckExpr(e *expr.Expr) (Result, expr.Env) {
	return s.Check([]*expr.Expr{e})
}

// flattenInto splits e into conjunctive atoms (comparisons, non-linear
// leaves) and disjunction atoms, interning each. It returns false if a
// literal false was found.
func (s *Solver) flattenInto(e *expr.Expr, conj, disj *[]*internEntry) bool {
	switch e.Kind {
	case expr.KBool:
		return e.Val != 0
	case expr.KAnd:
		return s.flattenInto(e.Args[0], conj, disj) && s.flattenInto(e.Args[1], conj, disj)
	case expr.KOr:
		*disj = append(*disj, s.arena.intern(e))
		return true
	default:
		*conj = append(*conj, s.arena.intern(e))
		return true
	}
}

// disjuncts expands an Or tree into its top-level disjuncts.
func disjuncts(e *expr.Expr, out *[]*expr.Expr) {
	if e.Kind == expr.KOr {
		disjuncts(e.Args[0], out)
		disjuncts(e.Args[1], out)
		return
	}
	*out = append(*out, e)
}

// solve handles DPLL splitting over the disjunctions, then delegates pure
// conjunctions to solveConj. A cancelled ctx aborts the split tree with
// Unknown at the next node boundary.
func (s *Solver) solve(ctx context.Context, conj, disj []*internEntry, budget *int) (Result, expr.Env) {
	if ctx.Err() != nil {
		return Unknown, nil
	}
	if len(disj) == 0 {
		return s.solveConj(ctx, conj, budget)
	}
	// Split-node pruning: refute the partial conjunction by propagation
	// before splitting further. Without this, a contradicted disjunct picked
	// near the root (e.g. a client-path negation whose first disjunct
	// contradicts the server path) poisons an entire subtree whose
	// infeasibility would otherwise only surface leaf by leaf — turning a
	// linear walk into an exponential one on conjunction-heavy Trojan
	// queries. Propagation-only refutation is sound (adding the remaining
	// disjuncts can never make an unsat conjunction satisfiable), so
	// verdicts are unchanged; only the visit order of the split tree
	// shrinks.
	if !s.feasible(conj) {
		return Unsat, nil
	}
	// Split on the first disjunction; propagation inside solveConj will
	// quickly kill infeasible branches.
	d := disj[0]
	rest := disj[1:]
	var parts []*expr.Expr
	disjuncts(d.e, &parts)
	sawUnknown := false
	for _, p := range parts {
		if *budget <= 0 {
			return Unknown, nil
		}
		s.stats.splits.Add(1)
		subConj := append([]*internEntry{}, conj...)
		subDisj := append([]*internEntry{}, rest...)
		if !s.flattenInto(p, &subConj, &subDisj) {
			continue
		}
		res, model := s.solve(ctx, subConj, subDisj, budget)
		switch res {
		case Sat:
			return Sat, model
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return Unsat, nil
}

// interval is an inclusive integer range.
type interval struct {
	lo, hi int64
}

func (iv interval) empty() bool           { return iv.lo > iv.hi }
func (iv interval) point() bool           { return iv.lo == iv.hi }
func (iv interval) size() int64           { return satAdd(satSub(iv.hi, iv.lo), 1) }
func (iv interval) contains(v int64) bool { return v >= iv.lo && v <= iv.hi }

func satAdd(a, b int64) int64 {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		if b > 0 {
			return satLimit
		}
		return -satLimit
	}
	return clamp(c)
}

func satSub(a, b int64) int64 { return satAdd(a, satNeg(b)) }

func satNeg(a int64) int64 {
	if a == -satLimit || a == satLimit {
		return -a
	}
	return clamp(-a)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || c > satLimit || c < -satLimit {
		if (a > 0) == (b > 0) {
			return satLimit
		}
		return -satLimit
	}
	return c
}

func clamp(v int64) int64 {
	if v > satLimit {
		return satLimit
	}
	if v < -satLimit {
		return -satLimit
	}
	return v
}

// conjState is the mutable state of a conjunction search. Domain reads are
// layered: the assignment, then the narrowings written this solve (domains),
// then the full interval — so a fresh state costs nothing per variable and
// search clones copy only what this solve actually narrowed. All reads must
// go through domainOf; a direct domains[v] lookup would misread an untouched
// variable as the empty-ish zero interval.
type conjState struct {
	entries  []*internEntry      // interned source atoms (for lazy varOrder)
	atoms    []*linAtom          // linearised atoms
	nonlin   []*expr.Expr        // atoms outside the linear fragment
	domains  map[string]interval // narrowings made during this solve
	assigned expr.Env            // fixed variables
	orig     []*expr.Expr        // original atoms for final verification
	varOrder []string            // deterministic variable ordering, built lazily
}

func (cs *conjState) clone() *conjState {
	nd := make(map[string]interval, len(cs.domains))
	for k, v := range cs.domains {
		nd[k] = v
	}
	na := make(expr.Env, len(cs.assigned))
	for k, v := range cs.assigned {
		na[k] = v
	}
	return &conjState{
		entries:  cs.entries, // immutable after build
		atoms:    cs.atoms,
		nonlin:   cs.nonlin,
		domains:  nd,
		assigned: na,
		orig:     cs.orig,
		varOrder: cs.varOrder,
	}
}

// newConjState assembles the conjunction search state from interned entries:
// linearisations and variable lists come from the arena instead of being
// recomputed. varOrder is built on demand (ensureVarOrder): the split-node
// gate (feasible) only propagates and never needs it.
func (s *Solver) newConjState(entries []*internEntry) *conjState {
	cs := &conjState{
		entries:  entries,
		domains:  make(map[string]interval, 8),
		assigned: expr.Env{},
		orig:     make([]*expr.Expr, len(entries)),
	}
	for i, en := range entries {
		cs.orig[i] = en.e
		if en.la != nil {
			cs.atoms = append(cs.atoms, en.la)
		} else {
			cs.nonlin = append(cs.nonlin, en.e)
		}
	}
	return cs
}

// ensureVarOrder materialises the deterministic variable ordering; search
// and finish need it, propagation does not.
func (cs *conjState) ensureVarOrder() {
	if cs.varOrder == nil {
		cs.varOrder = mergeVars(cs.entries)
	}
}

// atomSetMemoCap bounds the split-gate memo. Recording stops at the cap (no
// eviction): a full memo keeps serving its hits, and correctness never
// depends on an insert landing.
const atomSetMemoCap = 1 << 16

// atomSetMemo is the mutex-guarded set of atom-set keys the split-node gate
// found not refuted.
type atomSetMemo struct {
	mu sync.Mutex
	m  map[string]struct{}
}

func newAtomSetMemo() *atomSetMemo {
	return &atomSetMemo{m: make(map[string]struct{})}
}

// has reports whether key was recorded.
func (m *atomSetMemo) has(key string) bool {
	m.mu.Lock()
	_, ok := m.m[key]
	m.mu.Unlock()
	return ok
}

// add records key, dropping it when the memo is full.
func (m *atomSetMemo) add(key string) {
	m.mu.Lock()
	if len(m.m) < atomSetMemoCap {
		m.m[key] = struct{}{}
	}
	m.mu.Unlock()
}

// atomSetKey encodes the sorted, deduplicated interned-ID set of a
// conjunction as a compact byte string. Order-variants and duplicate atoms
// of one conjunction alias deliberately: neither changes the propagation
// fixpoint or a pairwise conflict.
func atomSetKey(entries []*internEntry) string {
	ids := make([]uint64, 0, len(entries))
	for _, en := range entries {
		ids = append(ids, en.id)
	}
	// Insertion sort: conjunctions are small and mostly pre-sorted (prefix
	// atoms intern in path order).
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	buf := make([]byte, 0, len(ids)*2)
	var last uint64
	for i, id := range ids {
		if i > 0 && id == last {
			continue
		}
		// Delta-encode against the previous ID: sorted sets varint-pack well.
		buf = binary.AppendUvarint(buf, id-last)
		last = id
	}
	return string(buf)
}

// feasible reports whether the budget-free refutation layer —
// linearConflict, interval propagation — fails to refute the conjunction:
// false means provably unsat. It runs no search, which keeps it cheap enough
// for every DPLL split node.
//
// The answer is a pure function of the conjunction's atom set, so the "not
// refuted" answer is memoised under atomSetKey: sibling split branches
// rebuild the same partial conjunctions over and over, and a hit skips the
// whole conjState build and propagation. The answer feeds nothing downstream
// but the split/no-split decision, so replaying it cannot shift verdicts.
func (s *Solver) feasible(conj []*internEntry) bool {
	key := atomSetKey(conj)
	if s.propOK.has(key) {
		s.stats.feasibleHits.Add(1)
		return true
	}
	cs := s.newConjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(cs) {
		return false
	}
	s.propOK.add(key)
	return true
}

// solveConj decides a pure conjunction of atoms. The budget-free refutation
// layer runs first (pairwise conflicts, propagation); only then is the
// decision budget spent on search.
func (s *Solver) solveConj(ctx context.Context, conj []*internEntry, budget *int) (Result, expr.Env) {
	cs := s.newConjState(conj)
	if linearConflict(cs.atoms) || !s.propagate(cs) {
		return Unsat, nil
	}
	cs.ensureVarOrder()
	return s.search(ctx, cs, budget)
}

// propagate runs domain tightening to a fixpoint (bounded rounds). It
// returns false when a domain became empty (conflict).
func (s *Solver) propagate(cs *conjState) bool {
	const maxRounds = 64
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, a := range cs.atoms {
			ok, ch := s.propagateAtom(cs, a)
			if !ok {
				return false
			}
			changed = changed || ch
		}
		// Try to finish non-linear atoms that became concrete.
		for _, nl := range cs.nonlin {
			if v, err := expr.EvalBool(nl, fullEnvFor(nl, cs)); err == nil && !v {
				return false
			}
		}
		if !changed {
			return true
		}
	}
	return true
}

// fullEnvFor returns an environment covering nl's variables if every one of
// them is pinned to a point domain; otherwise nil (EvalBool will error on the
// unbound variable, which callers treat as "not decidable yet").
func fullEnvFor(nl *expr.Expr, cs *conjState) expr.Env {
	env := expr.Env{}
	set := map[string]bool{}
	expr.CollectVars(nl, set)
	for v := range set {
		if x, ok := cs.assigned[v]; ok {
			env[v] = x
			continue
		}
		d := cs.domainOf(v)
		if !d.point() {
			return nil
		}
		env[v] = d.lo
	}
	return env
}

// domainOf returns the current interval of v, treating assignments as point
// domains and untouched variables as the full interval.
func (cs *conjState) domainOf(v string) interval {
	if x, ok := cs.assigned[v]; ok {
		return interval{x, x}
	}
	if iv, ok := cs.domains[v]; ok {
		return iv
	}
	return interval{-satLimit, satLimit}
}

// setDomain narrows the domain of v, reporting (ok, changed).
func (cs *conjState) setDomain(v string, iv interval) (bool, bool) {
	cur := cs.domainOf(v)
	nlo, nhi := cur.lo, cur.hi
	if iv.lo > nlo {
		nlo = iv.lo
	}
	if iv.hi < nhi {
		nhi = iv.hi
	}
	if nlo > nhi {
		return false, true
	}
	if nlo == cur.lo && nhi == cur.hi {
		return true, false
	}
	cs.domains[v] = interval{nlo, nhi}
	return true, true
}

// propagateAtom tightens domains using one linear atom.
// Atom form: sum(coeff_i * x_i) + c  OP  0 with OP in {<=, ==, !=}.
func (s *Solver) propagateAtom(cs *conjState, a *linAtom) (ok, changed bool) {
	s.stats.propagations.Add(1)
	// Partition into assigned and free, folding assigned values into c.
	c := a.c
	type term struct {
		v     string
		coeff int64
	}
	var free []term
	for i, v := range a.vars {
		if x, okA := cs.assigned[v]; okA {
			c = satAdd(c, satMul(a.coeffs[i], x))
			continue
		}
		d := cs.domainOf(v)
		if d.point() {
			c = satAdd(c, satMul(a.coeffs[i], d.lo))
			continue
		}
		free = append(free, term{v, a.coeffs[i]})
	}
	if len(free) == 0 {
		switch a.op {
		case opLe:
			return c <= 0, false
		case opEq:
			return c == 0, false
		case opNe:
			return c != 0, false
		}
	}
	// Bounds of the free part. othersBounds(skip) recomputes the bounds of
	// c + Σ_{u≠skip} coeff_u·x_u from scratch: subtracting a term from a
	// *saturated* total would silently widen or corrupt the bound, so per-
	// target bounds are never derived from the totals.
	othersBounds := func(skip int) (lo, hi int64) {
		lo, hi = c, c
		for j, t := range free {
			if j == skip {
				continue
			}
			d := cs.domainOf(t.v)
			p1, p2 := satMul(t.coeff, d.lo), satMul(t.coeff, d.hi)
			if p1 > p2 {
				p1, p2 = p2, p1
			}
			lo = satAdd(lo, p1)
			hi = satAdd(hi, p2)
		}
		return lo, hi
	}
	sumLo, sumHi := othersBounds(-1)
	switch a.op {
	case opNe:
		// Only useful when a single free var with unit coefficient and the
		// excluded value sits on a domain boundary.
		if len(free) == 1 && (free[0].coeff == 1 || free[0].coeff == -1) {
			// coeff*x + c != 0 => x != -c/coeff
			excl := satNeg(c)
			if free[0].coeff == -1 {
				excl = c
			}
			d := cs.domainOf(free[0].v)
			if d.point() && d.lo == excl {
				return false, true
			}
			if d.lo == excl {
				okSet, ch := cs.setDomain(free[0].v, interval{excl + 1, d.hi})
				return okSet, ch
			}
			if d.hi == excl {
				okSet, ch := cs.setDomain(free[0].v, interval{d.lo, excl - 1})
				return okSet, ch
			}
		}
		return true, false
	case opLe:
		if sumLo > 0 {
			return false, true
		}
		// Tighten each free var: coeff*x <= -(c + others)
		for i, t := range free {
			othersLo, _ := othersBounds(i)
			bound := satNeg(othersLo) // coeff*x <= bound
			var iv interval
			if t.coeff > 0 {
				iv = interval{-satLimit, floorDiv(bound, t.coeff)}
			} else {
				iv = interval{ceilDiv(bound, t.coeff), satLimit}
			}
			okSet, ch := cs.setDomain(t.v, iv)
			if !okSet {
				return false, true
			}
			changed = changed || ch
		}
		return true, changed
	case opEq:
		if sumLo > 0 || sumHi < 0 {
			return false, true
		}
		for i, t := range free {
			othersLo, othersHi := othersBounds(i)
			// coeff*x = -(c + others) => bounds from others' range.
			vLo := satNeg(othersHi)
			vHi := satNeg(othersLo)
			var iv interval
			if t.coeff == 1 {
				iv = interval{vLo, vHi}
			} else if t.coeff == -1 {
				iv = interval{satNeg(vHi), satNeg(vLo)}
			} else if t.coeff > 0 {
				iv = interval{ceilDiv(vLo, t.coeff), floorDiv(vHi, t.coeff)}
			} else {
				iv = interval{ceilDiv(vHi, t.coeff), floorDiv(vLo, t.coeff)}
			}
			okSet, ch := cs.setDomain(t.v, iv)
			if !okSet {
				return false, true
			}
			changed = changed || ch
		}
		return true, changed
	}
	return true, false
}

// floorDiv and ceilDiv are division rounding toward -inf / +inf.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return clamp(q)
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return clamp(q)
}

// ctxCheckMask paces cancellation polling inside the enumeration loop:
// ctx.Err() takes a lock on cancellable contexts, so it is consulted every
// 64 decisions rather than on each one. 64 decisions re-propagate domains
// in well under a millisecond, keeping abort latency negligible.
const ctxCheckMask = 63

// search enumerates assignments. It always verifies candidate models against
// the original atoms before reporting Sat.
func (s *Solver) search(ctx context.Context, cs *conjState, budget *int) (Result, expr.Env) {
	if *budget <= 0 {
		return Unknown, nil
	}
	// Choose the unassigned variable with the smallest domain.
	bestVar := ""
	var bestSize int64
	for _, v := range cs.varOrder {
		if _, done := cs.assigned[v]; done {
			continue
		}
		d := cs.domainOf(v)
		if d.point() {
			cs.assigned[v] = d.lo
			continue
		}
		sz := d.size()
		if bestVar == "" || sz < bestSize {
			bestVar, bestSize = v, sz
		}
	}
	if bestVar == "" {
		return s.finish(cs)
	}
	d := cs.domainOf(bestVar)
	var candidates []int64
	exhaustive := false
	if bestSize <= s.opts.MaxEnumDomain {
		exhaustive = true
		for v := d.lo; v <= d.hi; v++ {
			candidates = append(candidates, v)
			if v == d.hi { // guard overflow when hi is MaxInt-ish
				break
			}
		}
	} else {
		candidates = boundaryCandidates(d)
	}
	sawUnknown := !exhaustive
	for _, v := range candidates {
		if *budget <= 0 {
			return Unknown, nil
		}
		if *budget&ctxCheckMask == 0 && ctx.Err() != nil {
			return Unknown, nil
		}
		*budget--
		s.stats.decisions.Add(1)
		child := cs.clone()
		child.assigned[bestVar] = v
		delete(child.domains, bestVar)
		if !s.propagate(child) {
			continue
		}
		res, model := s.search(ctx, child, budget)
		switch res {
		case Sat:
			return Sat, model
		case Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown, nil
	}
	return Unsat, nil
}

// boundaryCandidates picks heuristic values from a domain too large to
// enumerate. Small magnitudes come first so that models (and therefore the
// concrete Trojan examples shown to users) stay human-readable; the domain
// bounds follow for constraints that force large values.
func boundaryCandidates(d interval) []int64 {
	raw := []int64{0, 1, -1, 2, -2, 7, 42, 100, -100, 255,
		d.hi, d.lo, d.hi - 1, d.lo + 1, d.lo/2 + d.hi/2}
	seen := map[int64]bool{}
	var out []int64
	for _, v := range raw {
		if d.contains(v) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// finish validates a full assignment against all original constraints.
func (s *Solver) finish(cs *conjState) (Result, expr.Env) {
	env := make(expr.Env, len(cs.assigned))
	for k, v := range cs.assigned {
		env[k] = v
	}
	for _, v := range cs.varOrder {
		if _, ok := env[v]; !ok {
			env[v] = cs.domainOf(v).lo
		}
	}
	s.stats.verified.Add(1)
	for _, a := range cs.orig {
		v, err := expr.EvalBool(a, env)
		if err != nil || !v {
			return Unsat, nil
		}
	}
	return Sat, env
}

// MustModel is a test helper: it checks the constraints and panics unless
// they are satisfiable, returning the model.
func (s *Solver) MustModel(constraints []*expr.Expr) expr.Env {
	res, m := s.Check(constraints)
	if res != Sat {
		panic(fmt.Sprintf("solver: expected sat, got %v for %v", res, constraints))
	}
	return m
}
