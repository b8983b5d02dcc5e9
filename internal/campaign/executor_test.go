package campaign

// Executor-seam coverage: the lane-sizing contract (splitBudget edge cases)
// and the engine's behavior under a wrapped backend.

import (
	"context"
	"slices"
	"sync"
	"testing"

	"achilles/internal/solver"
)

// TestSplitBudgetExecutorEdgeCases pins splitBudget for the degenerate
// shapes a lane split can take: more lanes than budget (every lane still
// gets one slot — no zero-starved lane), a zero budget (clamped up to one
// slot per lane rather than handing out zeros), and the single-lane split
// (the whole budget lands on the only lane). When the budget covers the
// lanes, the grants sum to exactly the budget; when it cannot, they sum to
// exactly one slot per lane — never zero anywhere.
func TestSplitBudgetExecutorEdgeCases(t *testing.T) {
	cases := []struct {
		name            string
		budget, workers int
		want            []int
	}{
		{"workers-exceed-budget", 2, 5, []int{1, 1, 1, 1, 1}},
		{"workers-far-exceed-budget", 1, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{"zero-budget", 0, 3, []int{1, 1, 1}},
		{"zero-budget-single", 0, 1, []int{1}},
		{"single-worker-degenerate", 9, 1, []int{9}},
		{"single-worker-unit", 1, 1, []int{1}},
		{"exact-division", 6, 3, []int{2, 2, 2}},
		{"remainder-spread", 8, 5, []int{2, 2, 2, 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := splitBudget(c.budget, c.workers)
			if !slices.Equal(got, c.want) {
				t.Fatalf("splitBudget(%d, %d) = %v, want %v", c.budget, c.workers, got, c.want)
			}
			sum := 0
			for _, g := range got {
				if g < 1 {
					t.Fatalf("splitBudget(%d, %d): zero-starved worker in %v", c.budget, c.workers, got)
				}
				sum += g
			}
			wantSum := c.budget
			if c.workers > wantSum {
				wantSum = c.workers
			}
			if sum != wantSum {
				t.Fatalf("splitBudget(%d, %d) sums to %d, want %d", c.budget, c.workers, sum, wantSum)
			}
		})
	}
}

// countingExecutor wraps the local backend and records every call, proving
// the campaign engine routes all execution through the seam.
type countingExecutor struct {
	inner  *LocalExecutor
	mu     sync.Mutex
	ran    []string
	grants []int
}

func (e *countingExecutor) Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report) {
	e.mu.Lock()
	e.ran = append(e.ran, j.Key())
	e.grants = append(e.grants, parallelism)
	e.mu.Unlock()
	return e.inner.Run(ctx, j, parallelism)
}

// TestCampaignRunsThroughExecutorSeam: with a custom executor installed,
// every non-cached job flows through Run, the lanes are sized
// min(budget, pending) with the budget's remainder spread, and the bundle is
// ContentHash-identical to a default-backend run.
func TestCampaignRunsThroughExecutorSeam(t *testing.T) {
	base := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1})

	ce := &countingExecutor{inner: NewLocalExecutor(Options{}, solver.Default())}
	b := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Executor: ce})

	if len(ce.ran) != 2 {
		t.Fatalf("executor ran %d jobs (%v), want 2", len(ce.ran), ce.ran)
	}
	for _, g := range ce.grants {
		if g != 1 {
			t.Fatalf("lane grants %v, want all 1 under -j 1", ce.grants)
		}
	}
	h1, err := base.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := b.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("custom-executor bundle drifted: %s != %s", h2, h1)
	}

	// -j 3 over 2 jobs: two lanes, the spare slot on the first — grants
	// {2, 1} whichever lane picks up which job.
	ce3 := &countingExecutor{inner: NewLocalExecutor(Options{}, solver.Default())}
	mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 3, Executor: ce3})
	slices.Sort(ce3.grants)
	if !slices.Equal(ce3.grants, []int{1, 2}) {
		t.Fatalf("-j 3 over 2 jobs: sorted lane grants %v, want [1 2]", ce3.grants)
	}

	// Baseline reuse happens above the seam: a fully cached re-run must not
	// touch the executor at all.
	ce2 := &countingExecutor{inner: NewLocalExecutor(Options{}, solver.Default())}
	cached := mustRun(t, Options{Targets: []string{"kv", "kv-fixed"}, Jobs: 1, Executor: ce2, Baseline: b})
	if cached.Manifest.CachedJobs != 2 {
		t.Fatalf("expected full reuse, got %d cached jobs", cached.Manifest.CachedJobs)
	}
	if len(ce2.ran) != 0 {
		t.Fatalf("cached campaign still reached the executor: ran=%v", ce2.ran)
	}
}

// TestShuffleSeedIsResultInvariant: feeding the lanes in shuffled order must
// not change the bundle — manifest order and ContentHash are plan-order
// properties, not schedule properties.
func TestShuffleSeedIsResultInvariant(t *testing.T) {
	plain := mustRun(t, Options{Targets: []string{"kv", "kv-fixed", "pbft"}, Jobs: 2})
	want, err := plain.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42, -7} {
		b := mustRun(t, Options{Targets: []string{"kv", "kv-fixed", "pbft"}, Jobs: 2, ShuffleSeed: seed})
		got, err := b.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d: shuffled campaign drifted: %s != %s", seed, got, want)
		}
		for i, rm := range b.Manifest.Runs {
			if rm.Key() != plain.Manifest.Runs[i].Key() {
				t.Fatalf("seed %d: manifest order drifted at %d: %s != %s", seed, i, rm.Key(), plain.Manifest.Runs[i].Key())
			}
		}
	}
}
