package solver

import (
	"fmt"
	"sync"
	"testing"

	"achilles/internal/expr"
)

// trojanShapedQueries builds a batch of queries of the shapes the Achilles
// pipeline issues: feasibility conjunctions, differentFrom membership pairs
// and negation disjunctions, over a few overlapping variables.
func trojanShapedQueries() [][]*expr.Expr {
	m0, m1, m2 := expr.Var("m0"), expr.Var("m1"), expr.Var("m2")
	var qs [][]*expr.Expr
	for k := int64(0); k < 24; k++ {
		qs = append(qs,
			[]*expr.Expr{expr.Ge(m0, expr.Const(k)), expr.Lt(m0, expr.Const(k+10))},
			[]*expr.Expr{expr.Eq(m1, expr.Add(m0, expr.Const(k))), expr.Gt(m0, expr.Const(0)), expr.Le(m1, expr.Const(50))},
			[]*expr.Expr{expr.Or(expr.Lt(m2, expr.Const(0)), expr.Ge(m2, expr.Const(k+1))), expr.Ne(m2, expr.Const(7))},
			[]*expr.Expr{expr.Eq(m0, expr.Const(k)), expr.Ne(m0, expr.Const(k))}, // unsat
		)
	}
	return qs
}

// TestConcurrentCheckMatchesSequential hammers one shared Solver from many
// goroutines and asserts every answer (and every Sat model, which Check
// verifies by evaluation before returning) matches the sequential baseline.
// Under -race this doubles as the data-race check for the stats counters and
// the sharded verdict cache.
func TestConcurrentCheckMatchesSequential(t *testing.T) {
	qs := trojanShapedQueries()
	baseline := New(Options{DisableCache: true})
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i], _ = baseline.Check(q)
	}

	shared := Default()
	const goroutines = 8
	const rounds = 5
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range qs {
					// Each goroutine walks the batch at a different offset so
					// cache hits and misses interleave.
					idx := (i + g*7) % len(qs)
					res, model := shared.Check(qs[idx])
					if res != want[idx] {
						errs <- fmt.Errorf("goroutine %d: query %d = %v, want %v", g, idx, res, want[idx])
						return
					}
					if res == Sat {
						for _, c := range qs[idx] {
							ok, err := expr.EvalBool(c, model)
							if err != nil || !ok {
								errs <- fmt.Errorf("goroutine %d: query %d: model %v fails %s", g, idx, model, c)
								return
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits across repeated identical queries")
	}
	if st.Queries != goroutines*rounds*len(qs) {
		t.Fatalf("query counter %d, want %d", st.Queries, goroutines*rounds*len(qs))
	}
}

// TestCacheKeyCanonicalisesOrder asserts reordered conjunctions share one
// cache entry.
func TestCacheKeyCanonicalisesOrder(t *testing.T) {
	s := Default()
	a := expr.Lt(expr.Var("x"), expr.Const(10))
	b := expr.Gt(expr.Var("x"), expr.Const(2))
	if res, _ := s.Check([]*expr.Expr{a, b}); res != Sat {
		t.Fatalf("want sat, got %v", res)
	}
	if res, _ := s.Check([]*expr.Expr{b, a}); res != Sat {
		t.Fatalf("want sat, got %v", res)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestCachedModelIsIsolated asserts a caller mutating a returned model does
// not corrupt the cached copy handed to later callers.
func TestCachedModelIsIsolated(t *testing.T) {
	s := Default()
	q := []*expr.Expr{expr.Eq(expr.Var("y"), expr.Const(5))}
	_, m1 := s.Check(q)
	m1["y"] = 999
	_, m2 := s.Check(q)
	if m2["y"] != 5 {
		t.Fatalf("cached model was corrupted: y=%d", m2["y"])
	}
}

// TestCacheEviction fills one tiny shard far past its cap and checks the
// solver still answers correctly (eviction must never change verdicts).
func TestCacheEviction(t *testing.T) {
	s := Default()
	s.cache = newVerdictCache(1, 8)
	x := expr.Var("x")
	for i := int64(0); i < 100; i++ {
		if res, _ := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(i))}); res != Sat {
			t.Fatalf("query %d: want sat, got %v", i, res)
		}
	}
	// Re-ask the first (long-evicted) query.
	if res, model := s.Check([]*expr.Expr{expr.Eq(x, expr.Const(0))}); res != Sat || model["x"] != 0 {
		t.Fatalf("re-solve after eviction: %v %v", res, model)
	}
}
