package core_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"achilles/internal/core"
	"achilles/internal/expr"
	_ "achilles/internal/protocols"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
)

// The §4 guard folds each client path's bind under the concrete message and
// state world instead of asking the solver the full query
// bind ∧ {m_f = c, state = v}. These tests hold the fold to the full query:
// a refuted path must be Unsat, a generating path Sat, and a residual path
// must get the full query's verdict from its residual conjuncts alone.

// foldTarget is one analysed target of the differential gate.
type foldTarget struct {
	name   string
	golden string // golden corpus file of the target's class set
	target core.Target
	opts   core.AnalysisOptions
}

// foldTargets returns every registry target plus the rich FSP corpus, whose
// extra client flag variants leave the plain target's class set.
func foldTargets(t *testing.T) []foldTarget {
	t.Helper()
	var out []foldTarget
	for _, d := range registry.All() {
		out = append(out, foldTarget{d.Name, d.Name, d.Target(), d.Analysis})
	}
	if len(out) != 13 {
		t.Fatalf("registry has %d targets, want 13", len(out))
	}
	return append(out, foldTarget{"fsp-rich", "fsp", fsp.NewRichTarget(false), core.AnalysisOptions{}})
}

// substitution maps the message variables and the state world to constants.
func substitution(pc *core.ClientPredicate, msg []int64, state expr.Env) map[string]*expr.Expr {
	sub := map[string]*expr.Expr{}
	for f, v := range msg {
		sub[pc.MsgVarName(f)] = expr.Const(v)
	}
	for name, v := range state {
		sub[name] = expr.Const(v)
	}
	return sub
}

// fullQuery is the unfolded check: bind plus one equality per substitution.
func fullQuery(bind []*expr.Expr, sub map[string]*expr.Expr) []*expr.Expr {
	q := append([]*expr.Expr{}, bind...)
	for name, c := range sub {
		q = append(q, expr.Eq(expr.Var(name), c))
	}
	return q
}

// checkFold compares the fold of one path against the full query and
// returns the fold outcome.
func checkFold(t *testing.T, s *solver.Solver, what string, bind []*expr.Expr, sub map[string]*expr.Expr) core.FoldOutcome {
	t.Helper()
	outcome, residual := core.FoldBind(bind, sub)
	full, _ := s.Check(fullQuery(bind, sub))
	switch outcome {
	case core.FoldRefuted:
		if full != solver.Unsat {
			t.Errorf("%s: fold refutes, full query is %v", what, full)
		}
	case core.FoldGenerates:
		if full != solver.Sat {
			t.Errorf("%s: fold generates, full query is %v", what, full)
		}
	default:
		if len(residual) == 0 {
			t.Errorf("%s: residual outcome with no residual conjuncts", what)
		}
		res, _ := s.Check(residual)
		if (res == solver.Sat) != (full == solver.Sat) {
			t.Errorf("%s: residual query is %v, full query is %v", what, res, full)
		}
	}
	return outcome
}

// TestFoldMatchesFullQueryOnReports checks the fold against the full query
// for every Trojan report and every client path of every target. The class
// set must be the golden one first: a fold that wrongly finds a generating
// client path drops the report before it could be checked here.
func TestFoldMatchesFullQueryOnReports(t *testing.T) {
	s := solver.Default()
	for _, ft := range foldTargets(t) {
		t.Run(ft.name, func(t *testing.T) {
			opts := ft.opts
			opts.Parallelism = 2
			run, err := core.Run(ft.target, opts)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("..", "protocols", "testdata", ft.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			for _, line := range core.ClassLines(run) {
				got.WriteString(line + "\n")
			}
			if got.String() != string(golden) {
				t.Errorf("class set differs from %s.golden:\n%s", ft.golden, got.String())
			}
			pc := run.Clients
			var counts [3]int
			for _, tr := range run.Analysis.Trojans {
				sub := substitution(pc, tr.Concrete, tr.StateEnv)
				for _, p := range pc.Paths {
					outcome := checkFold(t, s, ft.name, p.Bind(), sub)
					if outcome == core.FoldGenerates {
						t.Errorf("report %d: client path %d generates the verified example %v", tr.Index, p.ID, tr.Concrete)
					}
					counts[outcome]++
				}
			}
			t.Logf("%d reports × %d paths: %d refuted, %d residual", len(run.Analysis.Trojans),
				len(pc.Paths), counts[core.FoldRefuted], counts[core.FoldResidual])
		})
	}
}

// boundary holds the edge values the quick-check draws message fields from.
var boundary = []int64{0, 1, -1, math.MaxInt64, math.MinInt64}

// TestQuickFoldMatchesFullQuery draws random and boundary messages (and
// state worlds) and checks the fold against the full query on every client
// path of the registry fleet. Every client path also contributes a message
// it generates itself, which the guard must reject and which exercises the
// generating outcome, and the messages one step off it.
func TestQuickFoldMatchesFullQuery(t *testing.T) {
	s := solver.Default()
	for _, d := range registry.All() {
		t.Run(d.Name, func(t *testing.T) {
			tgt := d.Target()
			pc, err := core.ExtractClientPredicate(tgt.Clients, core.ExtractOptions{
				Exec:        tgt.ClientExec,
				FieldNames:  tgt.FieldNames,
				Mask:        tgt.Mask,
				SharedState: tgt.SharedState,
			})
			if err != nil {
				t.Fatal(err)
			}
			var stateVars []string
			for _, g := range tgt.ServerExec.GlobalSymbolic {
				stateVars = append(stateVars, "state_"+g)
			}
			draw := func(rnd *rand.Rand) int64 {
				switch rnd.Intn(3) {
				case 0:
					return boundary[rnd.Intn(len(boundary))]
				case 1:
					return rnd.Int63n(512) - 256
				}
				return int64(rnd.Uint64())
			}
			check := func(seed int64) bool {
				rnd := rand.New(rand.NewSource(seed))
				msg := make([]int64, pc.NumFields)
				for f := range msg {
					msg[f] = draw(rnd)
				}
				state := expr.Env{}
				for _, v := range stateVars {
					state[v] = draw(rnd)
				}
				sub := substitution(pc, msg, state)
				for _, p := range pc.Paths {
					checkFold(t, s, d.Name, p.Bind(), sub)
				}
				return !t.Failed()
			}
			cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}
			if err := quick.Check(check, cfg); err != nil {
				t.Error(err)
			}
			generating := 0
			for _, p := range pc.Paths {
				res, model := s.Check(p.Bind())
				if res != solver.Sat {
					continue
				}
				msg := make([]int64, pc.NumFields)
				for f := range msg {
					msg[f] = model[pc.MsgVarName(f)]
				}
				state := expr.Env{}
				for _, v := range stateVars {
					state[v] = model[v]
				}
				if checkFold(t, s, d.Name, p.Bind(), substitution(pc, msg, state)) == core.FoldGenerates {
					generating++
				}
				if core.VerifyNotClient(pc, msg, state) {
					t.Errorf("%s: the guard passes %v, which client path %d generates", d.Name, msg, p.ID)
				}
				// One step off the path's own message probes the edges of
				// its constraints.
				for f := range msg {
					for _, step := range []int64{-1, 1} {
						near := append([]int64{}, msg...)
						near[f] += step
						checkFold(t, s, d.Name, p.Bind(), substitution(pc, near, state))
					}
				}
			}
			t.Logf("%d client paths, %d fold to generating on their own message", len(pc.Paths), generating)
		})
	}
}

// TestFoldOutcomes pins the outcome of hand-built binds. A bind that can
// divide by zero is never decided by folding, even where the simplifying
// constructors would erase the division (0 * (x / m0) is 0 at m0 = 0).
func TestFoldOutcomes(t *testing.T) {
	s := solver.Default()
	m0, m1, x := expr.Var("m0"), expr.Var("m1"), expr.Var("c0_x")
	cases := []struct {
		bind   []*expr.Expr
		m0, m1 int64
		want   core.FoldOutcome
	}{
		{[]*expr.Expr{expr.Eq(m0, expr.Const(4)), expr.Eq(m1, expr.Const(0))}, 4, 0, core.FoldGenerates},
		{[]*expr.Expr{expr.Eq(m0, expr.Const(4)), expr.Eq(m1, x)}, 5, 0, core.FoldRefuted},
		{[]*expr.Expr{expr.Eq(m0, expr.Mul(expr.Const(2), x))}, 3, 0, core.FoldResidual},
		{[]*expr.Expr{expr.Eq(m0, expr.Mul(expr.Const(2), x))}, 4, 0, core.FoldResidual},
		{[]*expr.Expr{expr.Eq(m1, x), expr.Ge(x, expr.Const(33))}, 0, 40, core.FoldResidual},
		{[]*expr.Expr{expr.Eq(m1, expr.Div(x, expr.Const(0)))}, 0, 0, core.FoldResidual},
		{[]*expr.Expr{expr.Eq(m1, expr.Mod(x, expr.Const(0)))}, 0, 0, core.FoldResidual},
		{[]*expr.Expr{expr.Eq(expr.Mul(m1, expr.Div(x, m0)), expr.Const(0))}, 0, 0, core.FoldResidual},
	}
	for _, c := range cases {
		what := expr.AndAll(c.bind).String()
		sub := map[string]*expr.Expr{"m0": expr.Const(c.m0), "m1": expr.Const(c.m1)}
		if got := checkFold(t, s, what, c.bind, sub); got != c.want {
			t.Errorf("%s at m0=%d m1=%d: fold outcome %d, want %d", what, c.m0, c.m1, got, c.want)
		}
	}
}

// TestBindKeySeparatesSharedStateConstraints: a constraint over shared
// state mentions no message field, yet once the state is pinned it decides
// whether the path can generate a message, so it must stay in the key.
func TestBindKeySeparatesSharedStateConstraints(t *testing.T) {
	a, flag, st := expr.Var("a"), expr.Var("flag"), expr.Var("state_x")
	fields := []*expr.Expr{expr.Const(1), a}
	base := []*expr.Expr{expr.Gt(a, expr.Const(0))}
	with := func(k *expr.Expr) []*expr.Expr { return append(append([]*expr.Expr{}, base...), k) }

	hi := core.BindKeyOf(fields, with(expr.Gt(st, expr.Const(5))))
	lo := core.BindKeyOf(fields, with(expr.Le(st, expr.Const(5))))
	if hi == lo {
		t.Errorf("paths differing in a shared-state constraint share the key %q", hi)
	}
	// A local input tied to the state is pulled in through the closure.
	tiedHi := core.BindKeyOf(fields, append(with(expr.Eq(st, flag)), expr.Gt(flag, expr.Const(3))))
	tiedLo := core.BindKeyOf(fields, append(with(expr.Eq(st, flag)), expr.Lt(flag, expr.Const(3))))
	if tiedHi == tiedLo {
		t.Errorf("paths differing in a constraint tied to shared state share the key %q", tiedHi)
	}
	// Local-only flag constraints still share a key.
	on := core.BindKeyOf(fields, with(expr.Gt(flag, expr.Const(0))))
	off := core.BindKeyOf(fields, with(expr.Le(flag, expr.Const(0))))
	if on != off {
		t.Errorf("local-only flag variants got different keys %q and %q", on, off)
	}
}

// TestVerifyCountersFSPRich pins the §4 guard's work on the rich FSP corpus:
// every bindKey group but one per report refutes by folding, one residual
// query per report, and no Unknown, at any -j.
func TestVerifyCountersFSPRich(t *testing.T) {
	for _, j := range []int{1, 4} {
		run, err := core.Run(fsp.NewRichTarget(false), core.AnalysisOptions{Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		c := run.Counters()
		if c["verify_folded"] != 2480 || c["verify_queries"] != 80 || c["verify_unknowns"] != 0 {
			t.Errorf("-j %d: verify_folded/queries/unknowns = %d/%d/%d, want 2480/80/0", j,
				c["verify_folded"], c["verify_queries"], c["verify_unknowns"])
		}
	}
}
