package campaign

// The execution seam. RunCtx plans the job graph, applies baseline reuse,
// sizes its lanes from the -j budget and assembles the manifest; each job
// that actually runs goes through one Executor.Run call. LocalExecutor is
// the only backend and the default (Options.Executor == nil). The seam
// stays so a caller can wrap the backend — to time jobs, say — without
// touching the campaign loop.

import (
	"context"
	"fmt"
	"time"

	"achilles/internal/core"
	"achilles/internal/solver"
)

// Executor runs one campaign job with the lane's parallelism grant and
// returns its manifest entry plus report stream. Run must always return a
// usable manifest entry — failures are reported through RunManifest.Error,
// never by panicking or blocking forever. When the context is cancelled, an
// in-flight Run must return promptly with an "interrupted: …" error entry.
type Executor interface {
	Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report)
}

// LocalExecutor is the in-process backend: jobs run on this process's
// goroutines against one shared solver. It resolves targets through the
// campaign options, so campaign-local Extra descriptors (the mutation
// engine's generated variants) resolve alongside the registry.
type LocalExecutor struct {
	opts Options
	sol  *solver.Solver
}

// NewLocalExecutor returns the in-process backend for the given options,
// sharing sol's verdict cache across every job it runs. A nil solver gets
// solver.Default().
func NewLocalExecutor(opts Options, sol *solver.Solver) *LocalExecutor {
	if sol == nil {
		sol = solver.Default()
	}
	return &LocalExecutor{opts: opts, sol: sol}
}

// Run executes one target×mode analysis with the shared solver and the
// given intra-job parallelism, and converts the outcome into its manifest
// entry and report stream. A job cancelled mid-exploration is recorded as
// interrupted: its partial class set is discarded — a bundle must never
// present a cut-short job as that target's result.
func (e *LocalExecutor) Run(ctx context.Context, j Job, parallelism int) (RunManifest, []Report) {
	rm := RunManifest{
		Target:     j.Target,
		Mode:       j.Mode.String(),
		ReportFile: reportFileName(j),
	}
	d, ok := e.opts.lookupTarget(j.Target)
	if !ok {
		rm.Error = fmt.Sprintf("target %q disappeared from the registry", j.Target)
		return rm, nil
	}
	t0 := time.Now()
	tgt := d.Target()
	aopts := d.Analysis
	aopts.Mode = j.Mode
	aopts.Parallelism = parallelism
	aopts.Solver = e.sol
	if e.opts.Observe != nil {
		aopts.Observer = e.opts.Observe(j)
	}
	run, err := core.RunCtx(ctx, tgt, aopts)
	rm.WallMS = time.Since(t0).Milliseconds()
	if ctxErr := ctx.Err(); ctxErr != nil {
		rm.Error = "interrupted: " + ctxErr.Error()
		return rm, nil
	}
	if err != nil {
		rm.Error = err.Error()
		return rm, nil
	}
	rm.Classes = len(run.Analysis.Trojans)
	rm.ClientPaths = len(run.Clients.Paths)
	rm.Truncated = run.Truncated()
	rm.Counters = Counters(run.Counters())
	return rm, ReportsFromRun(tgt.FieldNames, run.Analysis.Trojans)
}
