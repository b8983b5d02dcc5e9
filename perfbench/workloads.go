package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"achilles"
	"achilles/internal/campaign"
	"achilles/internal/core"
	"achilles/internal/mutate"
	"achilles/internal/protocols/fsp"
	"achilles/internal/protocols/registry"
	"achilles/internal/solver"

	// Registers every bundled target with the registry.
	_ "achilles/internal/protocols"
)

var errTruncated = errors.New("analysis truncated")

// permute returns a seeded permutation of names.
func permute(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// firstClassAfter returns an observer that stores, once, the time from
// start to the first confirmed Trojan class.
func firstClassAfter(start time.Time, first *atomic.Int64) core.Observer {
	return core.Observer{OnTrojan: func(core.TrojanReport) {
		first.CompareAndSwap(0, int64(time.Since(start)))
	}}
}

// descriptors looks up registry targets by name.
func descriptors(names []string) ([]registry.Descriptor, error) {
	out := make([]registry.Descriptor, len(names))
	for i, n := range names {
		d, ok := registry.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("target %q is not registered", n)
		}
		out[i] = d
	}
	return out, nil
}

// targets builds (compiles) each descriptor's target.
func targets(descs []registry.Descriptor) []core.Target {
	out := make([]core.Target, len(descs))
	for i, d := range descs {
		out[i] = d.Target()
	}
	return out
}

// fspRich is the paper's headline target: one full analysis of the rich FSP
// corpus (256 client paths, 80 Trojan classes) at -j 1. Its input is fixed
// by the paper, so the seed does not change it.
type fspRich struct {
	tgt    core.Target
	golden []string

	// The last unit's output.
	sol       *solver.Solver
	trojans   []core.TrojanReport
	truncated bool
	pc        *core.ClientPredicate
	res       *core.Result
	first     time.Duration
}

func (w *fspRich) setup(int64) error {
	w.tgt = fsp.NewRichTarget(false)
	var err error
	// The rich corpus adds client flag variants only, so its class set is
	// the plain FSP target's.
	w.golden, err = readGolden("fsp")
	return err
}

// unit runs the analysis through achilles.Start, as a library caller does.
// The traced unit calls the three phases Start runs one by one instead, so
// each gets its own span.
func (w *fspRich) unit(ctx context.Context, tr *trace) error {
	w.sol = solver.Default()
	start := time.Now()
	var first atomic.Int64
	obs := firstClassAfter(start, &first)
	defer func() { w.first = time.Duration(first.Load()) }()
	if tr == nil {
		sess, err := achilles.Start(ctx, w.tgt,
			achilles.WithParallelism(1), achilles.WithSolver(w.sol), achilles.WithObserver(obs))
		if err != nil {
			return err
		}
		run, err := sess.Wait()
		if err != nil {
			return err
		}
		w.trojans, w.truncated = run.Analysis.Trojans, run.Truncated()
		return nil
	}
	pc, res, err := analyze(ctx, w.tgt, core.AnalysisOptions{Solver: w.sol, Parallelism: 1, Observer: obs}, tr.span)
	if err != nil {
		return err
	}
	w.pc, w.res = pc, res
	w.trojans, w.truncated = res.Trojans, pc.Truncated || res.Truncated()
	return nil
}

func (w *fspRich) check(ctx context.Context, wall time.Duration, tr *trace) outcome {
	reps := campaign.ReportsFromRun(w.tgt.FieldNames, w.trojans)
	found, err := matchLines(w.tgt.Name, reportLines(reps), w.golden)
	if w.truncated {
		err = errTruncated
	}
	// The one-job bundle achilles-audit would write for this analysis.
	job := campaign.Job{Target: w.tgt.Name, Mode: core.ModeOptimized}
	b := &campaign.Bundle{
		Manifest: campaign.Manifest{
			FormatVersion: campaign.FormatVersion,
			Tool:          campaign.Version,
			Jobs:          1,
			WallMS:        wall.Milliseconds(),
			Runs: []campaign.RunManifest{{
				Target:     job.Target,
				Mode:       job.Mode.String(),
				ReportFile: job.ReportFile(),
				Classes:    len(reps),
				WallMS:     wall.Milliseconds(),
			}},
		},
		Reports: map[string][]campaign.Report{job.Key(): reps},
	}
	out := outcome{firstClass: w.first, recall: float64(found) / float64(len(w.golden)), err: err}
	out.hash, err = b.ContentHash()
	if out.err == nil {
		out.err = err
	}
	if tr != nil && out.err == nil {
		tr.solverStats(w.sol.Stats())
		tr.coreCounts(w.pc, w.res)
		tr.campaignStats(b)
		out.err = errors.Join(
			tr.explore(ctx, w.tgt),
			tr.compileProbe([]core.Target{w.tgt}),
			tr.mutateProbe([]core.Target{w.tgt}),
			tr.hashProbe(b),
			writeBundle(b, tr.probe),
		)
		tr.checkTime()
	}
	return out
}

// firstClassExec is the in-process campaign backend with a watch on its
// results: it stores when the first job carrying a Trojan class returned,
// the earliest point a campaign caller can see a class.
type firstClassExec struct {
	campaign.Executor
	start time.Time
	first atomic.Int64
}

func (e *firstClassExec) Run(ctx context.Context, j campaign.Job, parallelism int) (campaign.RunManifest, []campaign.Report) {
	rm, reps := e.Executor.Run(ctx, j, parallelism)
	if rm.Classes > 0 {
		e.first.CompareAndSwap(0, int64(time.Since(e.start)))
	}
	return rm, reps
}

// fleetJobs is the fleet campaign's -j budget: one lane per vCPU of the
// two-vCPU machine the benchmark was sized on.
const fleetJobs = 2

// fleet is the operational audit: one campaign over every registry target
// in optimized mode, with the bundle written to a temporary directory. The
// seed permutes the target list handed to the campaign, which must not
// change the result: the campaign plans in canonical order.
type fleet struct {
	descs   []registry.Descriptor
	order   []string
	goldens map[string][]string

	// The last unit's output.
	sol    *solver.Solver
	bundle *campaign.Bundle
	first  time.Duration
}

func (w *fleet) setup(seed int64) error {
	names := registry.Names()
	descs, err := descriptors(names)
	if err != nil {
		return err
	}
	targets(descs) // compile every model once, as loading the fleet does
	w.descs, w.order = descs, permute(names, seed)
	w.goldens, err = readGoldens(names)
	return err
}

func (w *fleet) unit(ctx context.Context, tr *trace) error {
	w.sol = solver.Default()
	opts := campaign.Options{
		Targets: w.order,
		Modes:   []core.Mode{core.ModeOptimized},
		Jobs:    fleetJobs,
		Solver:  w.sol,
	}
	exec := &firstClassExec{Executor: campaign.NewLocalExecutor(opts, w.sol), start: time.Now()}
	opts.Executor = exec
	defer func() { w.first = time.Duration(exec.first.Load()) }()
	var err error
	tr.span("campaign.run_ms", func() { w.bundle, err = campaign.RunCtx(ctx, opts) })
	if err != nil {
		return err
	}
	return writeBundle(w.bundle, tr.span)
}

func (w *fleet) check(ctx context.Context, _ time.Duration, tr *trace) outcome {
	found, total, err := checkBundle(w.bundle, w.goldens)
	out := outcome{firstClass: w.first, recall: float64(found) / float64(total), err: err}
	out.hash, err = w.bundle.ContentHash()
	if out.err == nil {
		out.err = err
	}
	if tr != nil && out.err == nil {
		tr.solverStats(w.sol.Stats())
		tr.campaignStats(w.bundle)
		tgts := targets(w.descs)
		out.err = errors.Join(
			tr.hashProbe(w.bundle),
			tr.layerProbe(ctx, w.descs),
			tr.compileProbe(tgts),
			tr.mutateProbe(tgts),
		)
	}
	return out
}

// mutantBases are the base targets of the mutation workload.
var mutantBases = []string{"kv", "raft"}

// mutantJobs is the mutation campaign's -j budget (see fleetJobs).
const mutantJobs = 2

// mutants is the mutation-recall campaign over mutantBases: generate every
// mutant of each base server model and audit bases and mutants as one
// campaign. The seed permutes the base list, which must not change the
// result.
type mutants struct {
	descs   []registry.Descriptor
	order   []string
	goldens map[string][]string

	// The last unit's output.
	sol   *solver.Solver
	res   *mutate.Result
	first time.Duration
}

func (w *mutants) setup(seed int64) error {
	descs, err := descriptors(mutantBases)
	if err != nil {
		return err
	}
	targets(descs)
	w.descs, w.order = descs, permute(mutantBases, seed)
	w.goldens, err = readGoldens(mutantBases)
	return err
}

func (w *mutants) unit(ctx context.Context, tr *trace) error {
	w.sol = solver.Default()
	start := time.Now()
	var err error
	tr.span("mutate.run_ms", func() {
		w.res, err = mutate.RunCtx(ctx, mutate.CampaignOptions{Targets: w.order, Jobs: mutantJobs, Solver: w.sol})
	})
	// mutate.RunCtx reports nothing before it returns, so that is when its
	// caller sees the first class.
	w.first = time.Since(start)
	return err
}

func (w *mutants) check(ctx context.Context, _ time.Duration, tr *trace) outcome {
	_, _, err := checkBundle(w.res.Bundle, w.goldens)
	total := w.res.Report.Total
	if err == nil && total.Failed > 0 {
		err = fmt.Errorf("%d of %d mutants failed", total.Failed, total.Generated)
	}
	out := outcome{firstClass: w.first, recall: total.Recall, err: err}
	out.hash, err = w.res.Bundle.ContentHash()
	if out.err == nil {
		out.err = err
	}
	if tr != nil && out.err == nil {
		tr.solverStats(w.sol.Stats())
		tr.campaignStats(w.res.Bundle)
		tgts := targets(w.descs)
		out.err = errors.Join(
			tr.hashProbe(w.res.Bundle),
			writeBundle(w.res.Bundle, tr.probe),
			tr.layerProbe(ctx, w.descs),
			tr.compileProbe(tgts),
			tr.mutateProbe(tgts),
		)
	}
	return out
}
