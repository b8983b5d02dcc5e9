package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/lang"
	"achilles/internal/mutate"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"
	"achilles/internal/symexec"
)

// layerDef names one per-layer metric and its unit. The list is the set a
// traced run prints, in BENCHMARK.json order; NOTES.md says which
// end-to-end metric each should move.
type layerDef struct{ name, unit string }

var layerDefs = []layerDef{
	{"lang.compile_ms", "ms"},
	{"core.extract_ms", "ms"},
	{"core.extract.client_paths", "count"},
	{"core.preprocess_ms", "ms"},
	{"core.preprocess.disjuncts", "count"},
	{"core.preprocess.difffrom_pairs", "count"},
	{"core.preprocess.solver_queries", "count"},
	{"core.server_ms", "ms"},
	{"core.server.check_ms", "ms"},
	{"core.server.accepting_states", "count"},
	{"core.server.pruned_states", "count"},
	{"core.server.bulk_drops", "count"},
	{"core.server.bindkey_hits", "count"},
	{"core.server.filtered_reports", "count"},
	{"core.server.trojans", "count"},
	{"symexec.explore_ms", "ms"},
	{"symexec.states", "count"},
	{"symexec.forks", "count"},
	{"symexec.steps", "count"},
	{"symexec.solver_calls", "count"},
	{"symexec.subsumed", "count"},
	{"solver.queries", "count"},
	{"solver.cache_hit_ratio", "ratio"},
	{"solver.decisions", "count"},
	{"solver.propagations", "count"},
	{"solver.splits", "count"},
	{"solver.unknowns", "count"},
	{"solver.learned_sets", "count"},
	{"solver.learned_hit_ratio", "ratio"},
	{"solver.feasible_hits", "count"},
	{"solver.interned", "count"},
	{"campaign.jobs", "count"},
	{"campaign.job_ms.p50", "ms"},
	{"campaign.job_ms.max", "ms"},
	{"campaign.lane_util", "ratio"},
	{"campaign.hash_ms", "ms"},
	{"campaign.write_ms", "ms"},
	{"mutate.generate_ms", "ms"},
	{"mutate.mutants", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.span_cover", "ratio"},
}

// trace collects one traced unit's per-layer metrics. A nil *trace is an
// untraced unit: span just runs the call, and the recorders do nothing, so
// a workload has one code path for both.
type trace struct {
	values  map[string]float64
	covered time.Duration // wall time inside the unit's own layer spans
	mem     runtime.MemStats
}

func newTrace() *trace { return &trace{values: map[string]float64{}} }

// span runs fn, one call into a layer on the unit's own path, and charges
// its wall time to name. Spans are sequential, so their sum is the part of
// the unit's wall the trace accounts for.
func (t *trace) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.covered += d
	t.values[name] += ms(d)
}

// probe runs fn, a call made after the unit to measure a layer the unit's
// own spans cannot separate, and charges its wall time to name.
func (t *trace) probe(name string, fn func()) {
	t0 := time.Now()
	fn()
	t.values[name] += ms(time.Since(t0))
}

// add accumulates v into name (probes over several targets sum).
func (t *trace) add(name string, v float64) {
	if t != nil {
		t.values[name] += v
	}
}

// memBefore snapshots the runtime's allocation counters.
func (t *trace) memBefore() {
	if t != nil {
		runtime.ReadMemStats(&t.mem)
	}
}

// memAfter charges the unit's allocations, GC cycles and pauses, and the
// share of its wall its spans cover.
func (t *trace) memAfter(wall time.Duration) {
	if t == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.values["runtime.alloc_mb"] = float64(m.TotalAlloc-t.mem.TotalAlloc) / (1 << 20)
	t.values["runtime.mallocs"] = float64(m.Mallocs - t.mem.Mallocs)
	t.values["runtime.gc_cycles"] = float64(m.NumGC - t.mem.NumGC)
	t.values["runtime.gc_pause_ms"] = float64(m.PauseTotalNs-t.mem.PauseTotalNs) / 1e6
	t.values["trace.span_cover"] = float64(t.covered) / float64(wall)
}

// solverStats records the unit's solver counters. Every unit gets a fresh
// solver, so these are the unit's own work.
func (t *trace) solverStats(st solver.Stats) {
	if t == nil {
		return
	}
	t.values["solver.queries"] = float64(st.Queries)
	t.values["solver.cache_hit_ratio"] = ratio(st.CacheHits, st.Queries)
	t.values["solver.decisions"] = float64(st.Decisions)
	t.values["solver.propagations"] = float64(st.Propagations)
	t.values["solver.splits"] = float64(st.Splits)
	t.values["solver.unknowns"] = float64(st.Unknowns)
	t.values["solver.learned_sets"] = float64(st.LearnedSets)
	t.values["solver.learned_hit_ratio"] = ratio(st.LearnedHits, st.LearnedSets)
	t.values["solver.feasible_hits"] = float64(st.FeasibleHits)
	t.values["solver.interned"] = float64(st.Interned)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// analyze runs the phases core.RunCtx runs — extraction without
// preprocessing, preprocessing, server analysis — calling each layer's
// public function directly so timed can charge each to its own name.
func analyze(ctx context.Context, tgt core.Target, aopts core.AnalysisOptions, timed func(string, func())) (*core.ClientPredicate, *core.Result, error) {
	var pc *core.ClientPredicate
	var err error
	timed("core.extract_ms", func() {
		pc, err = core.ExtractClientPredicateCtx(ctx, tgt.Clients, core.ExtractOptions{
			Exec:           tgt.ClientExec,
			FieldNames:     tgt.FieldNames,
			Mask:           tgt.Mask,
			SharedState:    tgt.SharedState,
			Solver:         aopts.Solver,
			SkipPreprocess: true,
			Parallelism:    aopts.Parallelism,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	timed("core.preprocess_ms", func() { pc.PreprocessParallelCtx(ctx, aopts.Solver, aopts.Parallelism) })
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var res *core.Result
	aopts.Exec = tgt.ServerExec
	timed("core.server_ms", func() { res, err = core.AnalyzeServerCtx(ctx, tgt.Server, pc, aopts) })
	if err != nil {
		return nil, nil, err
	}
	return pc, res, nil
}

// coreCounts records the analysis counters of one target's run.
func (t *trace) coreCounts(pc *core.ClientPredicate, res *core.Result) {
	ps := pc.PreprocessStats
	t.add("core.extract.client_paths", float64(len(pc.Paths)))
	t.add("core.preprocess.disjuncts", float64(ps.Disjuncts))
	t.add("core.preprocess.difffrom_pairs", float64(ps.DiffFromYes+ps.DiffFromNo+ps.DiffFromUnk))
	t.add("core.preprocess.solver_queries", float64(ps.SolverQueries))
	t.add("core.server.accepting_states", float64(res.AcceptingStates))
	t.add("core.server.pruned_states", float64(res.PrunedStates))
	t.add("core.server.bulk_drops", float64(res.BulkDrops))
	t.add("core.server.bindkey_hits", float64(res.BindKeyHits))
	t.add("core.server.filtered_reports", float64(res.FilteredReports))
	t.add("core.server.trojans", float64(len(res.Trojans)))
}

// explore is the engine-only probe: the server model explored by
// symexec.RunCtx alone, with a fresh solver and none of the analysis hooks,
// so explore_ms is what exploration costs without Trojan checking.
func (t *trace) explore(ctx context.Context, tgt core.Target) error {
	opts := tgt.ServerExec
	opts.Solver = solver.Default()
	opts.Parallelism = 1
	var r *symexec.Result
	var err error
	t.probe("symexec.explore_ms", func() { r, err = symexec.RunCtx(ctx, tgt.Server, opts) })
	if err != nil {
		return fmt.Errorf("explore %s: %w", tgt.Name, err)
	}
	t.add("symexec.states", float64(r.Stats.States))
	t.add("symexec.forks", float64(r.Stats.Forks))
	t.add("symexec.steps", float64(r.Stats.Steps))
	t.add("symexec.solver_calls", float64(r.Stats.SolverCalls))
	t.add("symexec.subsumed", float64(r.Stats.Subsumed))
	return nil
}

// layerProbe measures the analysis layers on targets the unit ran inside a
// campaign, where no outside span can separate them: each target's three
// phases with its registry analysis options at -j 1 and a fresh solver,
// then the engine-only probe.
func (t *trace) layerProbe(ctx context.Context, descs []registry.Descriptor) error {
	for _, d := range descs {
		tgt := d.Target()
		aopts := d.Analysis
		aopts.Solver = solver.Default()
		aopts.Parallelism = 1
		pc, res, err := analyze(ctx, tgt, aopts, t.probe)
		if err != nil {
			return fmt.Errorf("probe %s: %w", d.Name, err)
		}
		t.coreCounts(pc, res)
		if err := t.explore(ctx, tgt); err != nil {
			return err
		}
	}
	t.checkTime()
	return nil
}

// checkTime derives the server phase's non-exploration time: what the
// Trojan checks and verification cost beyond the engine walk.
func (t *trace) checkTime() {
	t.values["core.server.check_ms"] = t.values["core.server_ms"] - t.values["symexec.explore_ms"]
}

// compileProbe recompiles the units from their canonical source with
// lang.Compile.
func (t *trace) compileProbe(targets []core.Target) error {
	var srcs []string
	for _, tgt := range targets {
		srcs = append(srcs, lang.Print(tgt.Server.Source))
		for _, c := range tgt.Clients {
			srcs = append(srcs, lang.Print(c.Unit.Source))
		}
	}
	var err error
	t.probe("lang.compile_ms", func() {
		for _, src := range srcs {
			if _, err = lang.Compile(src); err != nil {
				return
			}
		}
	})
	return err
}

// mutateProbe generates every mutant of each target's server model.
func (t *trace) mutateProbe(targets []core.Target) error {
	for _, tgt := range targets {
		var muts []mutate.Mutant
		var err error
		t.probe("mutate.generate_ms", func() { muts, _, err = mutate.Generate(tgt.Server, mutate.Options{}) })
		if err != nil {
			return fmt.Errorf("mutate %s: %w", tgt.Name, err)
		}
		t.add("mutate.mutants", float64(len(muts)))
	}
	return nil
}

// campaignStats records the campaign layer's view of a bundle: job count,
// per-job wall and how busy the -j lanes were.
func (t *trace) campaignStats(b *campaign.Bundle) {
	walls := make([]float64, len(b.Manifest.Runs))
	sum := 0.0
	for i, rm := range b.Manifest.Runs {
		walls[i] = float64(rm.WallMS)
		sum += walls[i]
	}
	s := sorted(walls)
	t.values["campaign.jobs"] = float64(len(walls))
	t.values["campaign.job_ms.p50"] = median(walls)
	t.values["campaign.job_ms.max"] = s[len(s)-1]
	t.values["campaign.lane_util"] = sum / (float64(b.Manifest.WallMS) * float64(b.Manifest.Jobs))
}

// hashProbe times the bundle's content hash.
func (t *trace) hashProbe(b *campaign.Bundle) error {
	var err error
	t.probe("campaign.hash_ms", func() { _, err = b.ContentHash() })
	return err
}

// writeBundle writes b into a fresh temporary directory and removes it
// again; timed charges the write.
func writeBundle(b *campaign.Bundle, timed func(string, func())) error {
	dir, err := os.MkdirTemp("", "perfbench-bundle-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	timed("campaign.write_ms", func() { err = b.Write(filepath.Join(dir, "bundle")) })
	return err
}
