// Package core implements the Achilles algorithm from "Finding Trojan
// Message Vulnerabilities in Distributed Systems" (ASPLOS 2014).
//
// Phase 1 extracts the client predicate PC — the disjunction of client path
// predicates, one per execution path of a client that sends a message — by
// running the client models symbolically and capturing every send() together
// with its path constraints (§3.1).
//
// Phase 2 explores the server symbolically while incrementally searching for
// Trojan messages (§3.2, §3.3): every server state tracks the set of client
// path predicates that can still trigger it; branches drop dead client
// paths (helped by the precomputed differentFrom matrix); a state is pruned
// as soon as no Trojan message can reach it; states that reach accept()
// therefore contain Trojan messages by construction.
//
// The negate operator is the paper's under-approximation (§3.2): per-field
// negation with overlap elimination (§4.1), so reported Trojan classes never
// intersect the client predicate.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// FieldKind classifies a message field expression within one client path.
type FieldKind uint8

// Field classifications used by the negate operator (§3.2).
const (
	FieldConst FieldKind = iota // concrete value: negation is m_f != c (exact)
	FieldVar                    // pure symbolic input with own constraints
	FieldExpr                   // expression over symbolic inputs
	FieldFree                   // unconstrained: negation abandoned
	FieldState                  // shared symbolic local state: negation is m_f != state (exact)
)

// ClientPath is one client path predicate pathC_i: the message field
// expressions and the path constraints captured at a send().
type ClientPath struct {
	ID          int
	Origin      string       // which client program produced it
	Fields      []*expr.Expr // E_f(λ): field expressions over input vars
	Constraints []*expr.Expr // K(λ): path constraints

	// Precomputed artifacts (built by the predicate preprocessor):
	fieldKind []FieldKind
	// bind: m_f == E'_f for every field plus K', with input vars renamed
	// c{ID}_*; satisfiable together with a server path iff a message on that
	// server path is generatable by this client path.
	bind []*expr.Expr
	// negDisjuncts[f] is the negation disjunct for field f over the server
	// message vars (nil when abandoned). Their disjunction is negate(pathC).
	negDisjuncts []*expr.Expr
	// simpleField[f] reports that field f is "independent" in the paper's
	// sense: a constant or a pure input var whose constraints mention only
	// that var, enabling differentFrom reasoning.
	simpleField []bool
	// bindKey is a canonical signature of the path's *message-relevant*
	// predicate: the field expressions plus the constraints transitively
	// connected to them, with input variables renamed in encounter order.
	// Paths with equal bindKeys admit exactly the same messages (they
	// differ only in local-only behaviour such as flag handling), so one
	// satisfiability verdict against a server path serves the whole group.
	bindKey string
}

// BindKey exposes the canonical message-relevant signature.
func (cp *ClientPath) BindKey() string { return cp.bindKey }

// Bind returns the cached binding constraints (message equality plus client
// path constraints, alpha-renamed). The slice must not be modified.
func (cp *ClientPath) Bind() []*expr.Expr { return cp.bind }

// Negation returns negate(pathC) as a single disjunction over the server
// message variables, skipping abandoned fields (nil disjuncts). An empty
// disjunction (false) means the negation was abandoned for every field: no
// message can be proven non-generatable.
func (cp *ClientPath) Negation() *expr.Expr {
	out := expr.False()
	for _, d := range cp.negDisjuncts {
		if d != nil {
			out = expr.Or(out, d)
		}
	}
	return out
}

// Tri is a three-valued truth value used by the differentFrom matrix.
type Tri uint8

// Tri values.
const (
	TriUnknown Tri = iota
	TriYes
	TriNo
)

// ClientPredicate is PC: all client path predicates plus the precomputed
// structures from §3.3.
type ClientPredicate struct {
	Paths     []*ClientPath
	NumFields int
	// FieldNames optionally names message fields for reports.
	FieldNames []string
	// MsgPrefix is the server message variable prefix ("m": fields are
	// m0, m1, ...).
	MsgPrefix string
	// differentFrom[i][j][f] = TriYes when path i can place a value in
	// field f that path j cannot; TriNo when provably not (field-f values
	// of i are a subset of j's); TriUnknown otherwise.
	differentFrom [][][]Tri

	// Masked fields are hidden from the analysis (§5.2): no negation
	// disjuncts are built for them.
	masked []bool

	// sharedVars are symbolic variables shared between client and server
	// runs (the Constructed Symbolic Local State mode, §3.4): they are
	// exempt from alpha-renaming so that both sides refer to the same
	// world. The engine names symbolic globals "state_*", which are shared
	// by default.
	sharedVars map[string]bool

	// PreprocessStats records the work done by PreprocessParallelCtx.
	PreprocessStats PreprocessStats

	// Truncated reports that at least one client exploration hit its
	// MaxStates budget: the predicate under-approximates what clients can
	// send, so "no client generates it" verdicts built on it are suspect.
	Truncated bool
}

// PreprocessStats summarises predicate preprocessing.
type PreprocessStats struct {
	RawPaths       int // paths captured before deduplication
	DedupedPaths   int // paths dropped as duplicates
	Disjuncts      int // negation disjuncts kept
	OverlapDropped int // disjuncts discarded by the §4.1 overlap check
	DiffFromYes    int
	DiffFromNo     int
	DiffFromUnk    int
	SolverQueries  int
}

// DifferentFrom exposes the matrix for tests and tooling.
func (pc *ClientPredicate) DifferentFrom(i, j, f int) Tri {
	return pc.differentFrom[i][j][f]
}

// Masked reports whether field f is hidden from the analysis.
func (pc *ClientPredicate) Masked(f int) bool {
	return f < len(pc.masked) && pc.masked[f]
}

// ExtractOptions configure client predicate extraction.
type ExtractOptions struct {
	// Exec is passed to the symbolic engine for each client run.
	Exec symexec.Options
	// FieldNames names the message fields (optional, for reports).
	FieldNames []string
	// Mask lists field indices to hide from the analysis (§5.2).
	Mask []int
	// SkipPreprocess leaves bind/negation/differentFrom uncomputed; used by
	// tooling that only wants the raw paths.
	SkipPreprocess bool
	// SharedState lists extra variable names shared between client and
	// server runs (§3.4). Variables prefixed "state_" are always shared.
	SharedState []string
	// Solver used during preprocessing; defaults to solver.Default().
	Solver *solver.Solver
	// Parallelism is the number of extraction workers: client programs run
	// concurrently (one goroutine per client, results merged in client
	// order, so path IDs are deterministic) and preprocessing fans the
	// per-path work out over the same number of workers. Values <= 1 keep
	// the sequential pipeline.
	Parallelism int
}

// ClientProgram pairs a compiled client with a name for reports.
type ClientProgram struct {
	Name string
	Unit *lang.Unit
}

// ExtractClientPredicate runs every client program symbolically, captures
// all sent messages as client path predicates, deduplicates them and runs
// the §3.3 preprocessing.
func ExtractClientPredicate(clients []ClientProgram, opts ExtractOptions) (*ClientPredicate, error) {
	return ExtractClientPredicateCtx(context.Background(), clients, opts)
}

// ExtractClientPredicateCtx is ExtractClientPredicate under a context. A
// cancelled extraction returns (nil, ctx.Err()): a partially-captured client
// predicate under-approximates PC in a way no downstream consumer can
// compensate for, so there is no useful partial result to hand back.
func ExtractClientPredicateCtx(ctx context.Context, clients []ClientProgram, opts ExtractOptions) (*ClientPredicate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pc := &ClientPredicate{
		FieldNames: opts.FieldNames,
		MsgPrefix:  "m",
		sharedVars: map[string]bool{},
	}
	for _, v := range opts.SharedState {
		pc.sharedVars[v] = true
	}
	if opts.Solver == nil {
		opts.Solver = solver.Default()
	}
	// Run every client model symbolically — concurrently when Parallelism
	// allows. Results land in a per-client slot and are merged below in
	// client order, so path IDs (and everything derived from them) are
	// identical whatever the worker count. The -j budget is split between
	// concurrently running clients and their engines' frontiers so a -j N
	// extraction runs ~N solver-bound goroutines rather than clients×N
	// (per-run results do not depend on the engine's worker count, so the
	// split is determinism-neutral).
	results := make([]*symexec.Result, len(clients))
	errs := make([]error, len(clients))
	concurrent := opts.Parallelism > 1 && len(clients) > 1
	execOpts := opts.Exec
	slots := opts.Parallelism
	if slots > len(clients) {
		slots = len(clients)
	}
	if execOpts.Parallelism == 0 {
		execOpts.Parallelism = opts.Parallelism
		if concurrent {
			execOpts.Parallelism = opts.Parallelism / slots
		}
	}
	parallelFor(slots, len(clients), func(i int) {
		results[i], errs[i] = symexec.RunCtx(ctx, clients[i].Unit, execOpts)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	raw := 0
	for ci, cl := range clients {
		if errs[ci] != nil {
			return nil, fmt.Errorf("core: client %s: %w", cl.Name, errs[ci])
		}
		res := results[ci]
		if res.Stats.Truncated {
			pc.Truncated = true
		}
		for _, st := range res.States {
			if st.Status == symexec.StatusError {
				return nil, fmt.Errorf("core: client %s: path error: %v", cl.Name, st.Err)
			}
			for _, sent := range st.Sent {
				raw++
				key := sentKey(sent)
				if seen[key] {
					continue
				}
				seen[key] = true
				cp := &ClientPath{
					ID:          len(pc.Paths),
					Origin:      cl.Name,
					Fields:      sent.Fields,
					Constraints: sent.Path,
				}
				if pc.NumFields == 0 {
					pc.NumFields = len(sent.Fields)
				} else if pc.NumFields != len(sent.Fields) {
					return nil, fmt.Errorf("core: client %s sends %d fields, others send %d",
						cl.Name, len(sent.Fields), pc.NumFields)
				}
				pc.Paths = append(pc.Paths, cp)
			}
		}
	}
	if len(pc.Paths) == 0 {
		return nil, fmt.Errorf("core: no client messages captured")
	}
	pc.PreprocessStats.RawPaths = raw
	pc.PreprocessStats.DedupedPaths = raw - len(pc.Paths)
	pc.masked = make([]bool, pc.NumFields)
	for _, f := range opts.Mask {
		if f >= 0 && f < pc.NumFields {
			pc.masked[f] = true
		}
	}
	if !opts.SkipPreprocess {
		pc.PreprocessParallelCtx(ctx, opts.Solver, opts.Parallelism)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

// sentKey is a structural fingerprint used for deduplication.
func sentKey(m symexec.SentMessage) string {
	var b strings.Builder
	for _, f := range m.Fields {
		b.WriteString(f.String())
		b.WriteByte('|')
	}
	b.WriteByte('#')
	// Constraint order is deterministic (program order), but sort anyway so
	// semantically identical paths with reordered conjuncts dedupe.
	cs := make([]string, len(m.Path))
	for i, c := range m.Path {
		cs[i] = c.String()
	}
	sort.Strings(cs)
	for _, c := range cs {
		b.WriteString(c)
		b.WriteByte('&')
	}
	return b.String()
}

// msgVar returns the server-side message variable for field f.
func (pc *ClientPredicate) msgVar(f int) *expr.Expr {
	return expr.Var(pc.MsgPrefix + strconv.Itoa(f))
}

// MsgVarName returns the server-side message variable name for field f.
func (pc *ClientPredicate) MsgVarName(f int) string {
	return pc.MsgPrefix + strconv.Itoa(f)
}

// FieldIndexOfVar parses a message variable name back to its field index,
// returning -1 for non-message variables.
func (pc *ClientPredicate) FieldIndexOfVar(name string) int {
	if !strings.HasPrefix(name, pc.MsgPrefix) {
		return -1
	}
	n, err := strconv.Atoi(name[len(pc.MsgPrefix):])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// PreprocessParallelCtx builds, for every client path, the binding
// constraints, the field classification, the negation disjuncts (with the
// §4.1 overlap check), and the differentFrom matrix (§3.3). The per-path
// work (binding, field classification, negation with its overlap solver
// queries, bind keys) fans out over the given number of workers. Paths are
// independent, so the produced artifacts are identical to a one-worker run;
// per-path counters are summed in path order, keeping PreprocessStats
// deterministic. The differentFrom matrix stays sequential: its memo
// already collapses the quadratic query load, and the remaining solver
// calls hit the verdict cache.
//
// Cancellation skips the remaining per-path work and leaves the rest of the
// differentFrom matrix at TriUnknown (the conservative don't-know). A
// cancelled preprocessing run leaves the predicate HALF-BUILT — missing
// negation disjuncts read as "abandoned" and silently suppress Trojan
// classes — so callers must check ctx.Err() afterwards and refuse to
// analyse with it (RunCtx and ExtractClientPredicateCtx both do).
func (pc *ClientPredicate) PreprocessParallelCtx(ctx context.Context, s *solver.Solver, workers int) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := make([]PreprocessStats, len(pc.Paths))
	parallelFor(workers, len(pc.Paths), func(i int) {
		if ctx.Err() != nil {
			return
		}
		cp := pc.Paths[i]
		pc.buildBind(cp)
		pc.classifyFields(cp)
		pc.buildNegation(ctx, cp, s, &stats[i])
		pc.buildBindKey(cp)
	})
	for _, st := range stats {
		pc.PreprocessStats.Disjuncts += st.Disjuncts
		pc.PreprocessStats.OverlapDropped += st.OverlapDropped
		pc.PreprocessStats.SolverQueries += st.SolverQueries
	}
	pc.buildDifferentFrom(ctx, s)
}

// buildBindKey computes the canonical message-relevant signature. The
// relevant constraint set is the transitive closure of the constraints
// sharing variables with the field expressions or with shared world state;
// constraints on local-only inputs (flags, normalisation choices) are
// excluded, because they are independently satisfiable and cannot affect
// sat(pathS ∧ bind). A constraint over a shared "state_*" variable is not
// local-only: the server path constrains that variable, and the §4 guard
// pins it to a concrete world, so it can decide the verdict by itself.
func (pc *ClientPredicate) buildBindKey(cp *ClientPath) {
	relevant := map[string]bool{}
	for _, e := range cp.Fields {
		expr.CollectVars(e, relevant)
	}
	// Transitive closure over constraints that share variables.
	for changed := true; changed; {
		changed = false
		for _, k := range cp.Constraints {
			vs := map[string]bool{}
			expr.CollectVars(k, vs)
			touches := false
			for v := range vs {
				if relevant[v] || pc.isShared(v) {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			for v := range vs {
				if !relevant[v] {
					relevant[v] = true
					changed = true
				}
			}
		}
	}
	// Canonical renaming in encounter order (shared state keeps names).
	canon := map[string]string{}
	next := 0
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		if c, ok := canon[n]; ok {
			return c
		}
		c := "k" + strconv.Itoa(next)
		next++
		canon[n] = c
		return c
	}
	var b strings.Builder
	for _, e := range cp.Fields {
		b.WriteString(expr.RenameVars(e, ren).String())
		b.WriteByte('|')
	}
	var ks []string
	for _, k := range cp.Constraints {
		vs := map[string]bool{}
		expr.CollectVars(k, vs)
		keep := len(vs) == 0
		for v := range vs {
			if relevant[v] {
				keep = true
				break
			}
		}
		if keep {
			ks = append(ks, expr.RenameVars(k, ren).String())
		}
	}
	sort.Strings(ks)
	for _, k := range ks {
		b.WriteString(k)
		b.WriteByte('&')
	}
	cp.bindKey = b.String()
}

// isShared reports whether a variable is shared world state (not renamed).
func (pc *ClientPredicate) isShared(name string) bool {
	return strings.HasPrefix(name, "state_") || pc.sharedVars[name]
}

// buildBind caches bind_i = { m_f == E'_f } ∪ K' with inputs renamed c{i}_
// (shared state variables keep their names).
func (pc *ClientPredicate) buildBind(cp *ClientPath) {
	prefix := "c" + strconv.Itoa(cp.ID) + "_"
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		return prefix + n
	}
	cp.bind = make([]*expr.Expr, 0, len(cp.Fields)+len(cp.Constraints))
	for f, e := range cp.Fields {
		cp.bind = append(cp.bind, expr.Eq(pc.msgVar(f), expr.RenameVars(e, ren)))
	}
	for _, k := range cp.Constraints {
		cp.bind = append(cp.bind, expr.RenameVars(k, ren))
	}
}

// classifyFields fills fieldKind and simpleField.
func (cp *ClientPath) constraintsMentioning(vars map[string]bool) []*expr.Expr {
	var out []*expr.Expr
	for _, k := range cp.Constraints {
		ks := map[string]bool{}
		expr.CollectVars(k, ks)
		for v := range ks {
			if vars[v] {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

func (pc *ClientPredicate) classifyFields(cp *ClientPath) {
	cp.fieldKind = make([]FieldKind, len(cp.Fields))
	cp.simpleField = make([]bool, len(cp.Fields))
	// Map each input var to the set of fields using it.
	varFields := map[string]map[int]bool{}
	for f, e := range cp.Fields {
		vs := map[string]bool{}
		expr.CollectVars(e, vs)
		for v := range vs {
			if varFields[v] == nil {
				varFields[v] = map[int]bool{}
			}
			varFields[v][f] = true
		}
	}
	for f, e := range cp.Fields {
		switch {
		case e.IsConst():
			cp.fieldKind[f] = FieldConst
			cp.simpleField[f] = true
			continue
		case e.Kind == expr.KVar && pc.isShared(e.Name):
			cp.fieldKind[f] = FieldState
			continue
		case e.Kind == expr.KVar:
			cp.fieldKind[f] = FieldVar
		default:
			cp.fieldKind[f] = FieldExpr
		}
		vs := map[string]bool{}
		expr.CollectVars(e, vs)
		ks := cp.constraintsMentioning(vs)
		if len(ks) == 0 {
			cp.fieldKind[f] = FieldFree
			continue
		}
		// simple: pure var, used only in this field, and all its constraints
		// mention only this var.
		if e.Kind == expr.KVar && len(varFields[e.Name]) == 1 {
			simple := true
			for _, k := range ks {
				kvars := expr.Vars(k)
				if len(kvars) != 1 || kvars[0] != e.Name {
					simple = false
					break
				}
			}
			cp.simpleField[f] = simple
		}
	}
}

// buildNegation constructs the negate(pathC) disjuncts per §3.2 and applies
// the §4.1 overlap check: any disjunct sharing a solution with the original
// path predicate is discarded, keeping the negation a strict
// under-approximation.
func (pc *ClientPredicate) buildNegation(ctx context.Context, cp *ClientPath, s *solver.Solver, stats *PreprocessStats) {
	cp.negDisjuncts = make([]*expr.Expr, len(cp.Fields))
	for f, e := range cp.Fields {
		if pc.masked[f] {
			continue
		}
		m := pc.msgVar(f)
		var d *expr.Expr
		switch cp.fieldKind[f] {
		case FieldConst:
			d = expr.Ne(m, e)
		case FieldState:
			// Shared symbolic local state (§3.4): within the analysed
			// world the field must equal the shared value, so differing
			// from it is an exact negation.
			d = expr.Ne(m, e)
		case FieldFree:
			continue // abandoned: unconstrained symbolic data
		case FieldVar:
			vs := map[string]bool{e.Name: true}
			ks := cp.constraintsMentioning(vs)
			if cp.simpleField[f] {
				// Exact: substitute m_f for the var in ¬K.
				neg := expr.Not(expr.AndAll(ks))
				d = expr.Substitute(neg, map[string]*expr.Expr{e.Name: m})
			} else {
				d = pc.exprFieldNegation(cp, f, e, ks)
			}
		case FieldExpr:
			vs := map[string]bool{}
			expr.CollectVars(e, vs)
			ks := cp.constraintsMentioning(vs)
			if len(ks) == 0 {
				continue // abandoned
			}
			d = pc.exprFieldNegation(cp, f, e, ks)
		}
		if d == nil || d.IsFalse() {
			continue
		}
		// §4.1 overlap check: discard the disjunct if a message generatable
		// by this client path also satisfies it. Exact negations (constants,
		// shared state, simple vars) cannot overlap and skip the query.
		if cp.fieldKind[f] != FieldConst && cp.fieldKind[f] != FieldState &&
			!(cp.fieldKind[f] == FieldVar && cp.simpleField[f]) {
			stats.SolverQueries++
			q := append(append([]*expr.Expr{}, cp.bind...), d)
			if res, _ := s.CheckCtx(ctx, q); res != solver.Unsat {
				stats.OverlapDropped++
				continue
			}
		}
		cp.negDisjuncts[f] = d
		stats.Disjuncts++
	}
}

// exprFieldNegation builds m_f == E(λ̃) ∧ ¬K(λ̃) with λ̃ fresh (n{i}_{f}_
// prefix), the §3.2 rule for expression fields such as checksums.
func (pc *ClientPredicate) exprFieldNegation(cp *ClientPath, f int, e *expr.Expr, ks []*expr.Expr) *expr.Expr {
	prefix := "n" + strconv.Itoa(cp.ID) + "_" + strconv.Itoa(f) + "_"
	ren := func(n string) string {
		if pc.isShared(n) {
			return n
		}
		return prefix + n
	}
	eq := expr.Eq(pc.msgVar(f), expr.RenameVars(e, ren))
	neg := expr.Not(expr.AndAll(ks))
	return expr.And(eq, expr.RenameVars(neg, ren))
}

// fieldValueMember returns a membership predicate for "v is a possible value
// of field f in path cp", valid only for simple fields.
func (cp *ClientPath) fieldValueMember(f int, v *expr.Expr) *expr.Expr {
	e := cp.Fields[f]
	if e.IsConst() {
		return expr.Eq(v, e)
	}
	// simple var: substitute v into its constraints.
	vs := map[string]bool{e.Name: true}
	ks := cp.constraintsMentioning(vs)
	return expr.Substitute(expr.AndAll(ks), map[string]*expr.Expr{e.Name: v})
}

// buildDifferentFrom computes the §3.3 matrix for simple fields. The
// computation is exactly the one in the paper: apply the (field-level)
// negate operator between every pair of client path predicates. Because
// large client corpora contain many paths with identical per-field value
// sets (e.g. every flag combination of the same utility), queries are
// memoised by the canonical member-predicate pair, which collapses the
// O(n²·fields) solver work to the number of distinct value-set pairs.
func (pc *ClientPredicate) buildDifferentFrom(ctx context.Context, s *solver.Solver) {
	n := len(pc.Paths)
	pc.differentFrom = make([][][]Tri, n)
	for i := range pc.differentFrom {
		pc.differentFrom[i] = make([][]Tri, n)
		for j := range pc.differentFrom[i] {
			pc.differentFrom[i][j] = make([]Tri, pc.NumFields)
		}
	}
	if ctx.Err() != nil {
		// The per-path pass may have skipped paths, which then have no
		// field classification: the whole matrix stays TriUnknown.
		return
	}
	v := expr.Var("df_v")
	// Canonical member predicates per (path, field), nil when not simple.
	members := make([][]*expr.Expr, n)
	keys := make([][]string, n)
	for i, p := range pc.Paths {
		members[i] = make([]*expr.Expr, pc.NumFields)
		keys[i] = make([]string, pc.NumFields)
		for f := 0; f < pc.NumFields; f++ {
			if pc.masked[f] || !p.simpleField[f] {
				continue
			}
			m := p.fieldValueMember(f, v)
			members[i][f] = m
			keys[i][f] = m.String()
		}
	}
	memo := map[[2]string]Tri{}
	for i := range pc.Paths {
		if ctx.Err() != nil {
			// Remaining entries stay TriUnknown — the conservative verdict
			// that disables the bulk drop but never flips a result.
			return
		}
		for j := range pc.Paths {
			if i == j {
				for f := 0; f < pc.NumFields; f++ {
					pc.differentFrom[i][j][f] = TriNo
					pc.PreprocessStats.DiffFromNo++
				}
				continue
			}
			for f := 0; f < pc.NumFields; f++ {
				if members[i][f] == nil || members[j][f] == nil {
					pc.differentFrom[i][j][f] = TriUnknown
					pc.PreprocessStats.DiffFromUnk++
					continue
				}
				key := [2]string{keys[i][f], keys[j][f]}
				tri, ok := memo[key]
				if !ok {
					// ∃v: member_i(v) ∧ ¬member_j(v)?
					q := []*expr.Expr{members[i][f], expr.Not(members[j][f])}
					pc.PreprocessStats.SolverQueries++
					switch res, _ := s.CheckCtx(ctx, q); res {
					case solver.Sat:
						tri = TriYes
					case solver.Unsat:
						tri = TriNo
					default:
						tri = TriUnknown
					}
					memo[key] = tri
				}
				pc.differentFrom[i][j][f] = tri
				switch tri {
				case TriYes:
					pc.PreprocessStats.DiffFromYes++
				case TriNo:
					pc.PreprocessStats.DiffFromNo++
				default:
					pc.PreprocessStats.DiffFromUnk++
				}
			}
		}
	}
}
