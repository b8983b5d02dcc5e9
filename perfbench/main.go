// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in a closed loop — one unit of work at a time, from this one
// process — for a fixed time, checks every unit's output against the golden
// corpus, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
// Every number is taken from outside the analyser: by timing calls into each
// layer's public functions, by reading a fresh solver's Stats per unit, and
// by reading the Go runtime's MemStats and getrusage. NOTES.md records why
// each workload exists and which end-to-end metric each layer metric should
// move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fsp-rich --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload's inputs; the
// median is reported as setup_s, so one slow first build (page faults, a
// cold heap) does not decide the figure.
const setupRepeats = 25

// minUnits is the fewest timed units a run collects, even past -seconds:
// with twenty, wall_ms.tail (ten samples beyond it) sits at the median or
// higher.
const minUnits = 20

// minTraced is the fewest traced (and interleaved plain) units a traced
// run collects; its figures are per-layer medians, not tails.
const minTraced = 3

// outcome is what one unit of work produced, as its caller sees it.
type outcome struct {
	// firstClass is the time from the unit's start until the first Trojan
	// class became visible to the caller of the workload's entry point.
	firstClass time.Duration
	// recall is the unit's detection rate: golden classes found over golden
	// classes, or for the mutation workload detected over detectable
	// mutants.
	recall float64
	// hash is the audit bundle's ContentHash (information, not a gate).
	hash string
	// err is set when the unit errored, was truncated or failed the
	// correctness gate.
	err error
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs from the seed: compiles its NL
	// units, loads the registry entries and the golden class lines.
	setup(seed int64) error
	// unit runs one unit of work, the part that is timed, and keeps its
	// output for check. When tr is non-nil the unit is traced: each call
	// into a layer on its path is a span.
	unit(ctx context.Context, tr *trace) error
	// check gates the last unit's output, outside the unit's timing. For a
	// traced unit it also records the per-layer counters and runs the
	// probes that measure layers the unit's own spans cannot separate.
	check(ctx context.Context, wall time.Duration, tr *trace) outcome
}

// newWorkload maps a -workload name to its implementation.
func newWorkload(name string) (workload, error) {
	switch name {
	case "fsp-rich":
		return &fspRich{}, nil
	case "fleet":
		return &fleet{}, nil
	case "mutants":
		return &mutants{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have fsp-rich, fleet, mutants)", name)
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fsp-rich, fleet or mutants")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, info, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info["workload"] = *name
	info["seed"] = *seed
	infoLine, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("info %s\n%s\n", infoLine, line)
}

// sample is the outside view of one timed unit.
type sample struct {
	wall, cpu time.Duration
	out       outcome
	tr        *trace
}

// run sets the workload up setupRepeats times, runs one untimed warm-up
// unit, then times units until the measurement time has passed and at least
// minUnits were collected. A traced run alternates untraced and traced
// units, so the two sets of walls give the tracing overhead.
func run(w workload, seed int64, d time.Duration, traced bool) (*result, map[string]any, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ctx := context.Background()
	attempted, failed := 0, 0
	var firstErr error
	account := func(s sample) {
		attempted++
		if s.out.err != nil {
			failed++
			if firstErr == nil {
				firstErr = s.out.err
			}
		}
	}
	account(measure(ctx, w, false))

	var plain, withTrace []sample
	tracedRuns := 0
	enough := func() bool {
		if traced {
			return tracedRuns >= minTraced && len(plain) >= minTraced
		}
		return len(plain) >= minUnits
	}
	hashes := map[string]int{}
	start := time.Now()
	for u := 1; time.Since(start) < d || !enough(); u++ {
		// A traced run interleaves plain and traced units in ABBA order,
		// so neither side always runs right after the other.
		tracedUnit := traced && (u%4 == 2 || u%4 == 3)
		s := measure(ctx, w, tracedUnit)
		account(s)
		if s.out.hash != "" {
			hashes[s.out.hash]++
		}
		switch {
		case !tracedUnit:
			plain = append(plain, s)
		case s.out.err == nil:
			// A failed traced unit stopped before recording every layer;
			// it counts as failed, but has no per-layer figures.
			withTrace = append(withTrace, s)
		}
		if tracedUnit {
			tracedRuns++
		}
	}

	info := map[string]any{"attempted": attempted, "failed": failed, "content_hashes": hashes}
	if firstErr != nil {
		info["first_failure"] = firstErr.Error()
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
	}
	if traced {
		if len(withTrace) == 0 {
			return nil, nil, fmt.Errorf("no traced unit passed the gate: %v", firstErr)
		}
		res.Metrics = layerMetrics(withTrace, plain, info)
		if cover := res.Metrics["trace.span_cover"].Value; cover < spanCoverFloor {
			res.Correct = false
			info["span_cover_failure"] = fmt.Sprintf("layer spans cover %.3f of the traced unit's wall, below %.2f", cover, spanCoverFloor)
		}
	} else {
		res.Metrics = endToEnd(plain, setups, attempted, failed, info)
	}
	return res, info, nil
}

// measure runs one unit and takes its wall and process CPU time.
func measure(ctx context.Context, w workload, traced bool) sample {
	var tr *trace
	if traced {
		tr = newTrace()
	}
	runtime.GC()
	tr.memBefore()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := w.unit(ctx, tr)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	tr.memAfter(wall)
	out := outcome{err: err}
	if err == nil {
		out = w.check(ctx, wall, tr)
	}
	return sample{wall: wall, cpu: cpu, out: out, tr: tr}
}

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the untraced run's metrics.
func endToEnd(units []sample, setups []float64, attempted, failed int, info map[string]any) map[string]metric {
	walls := make([]float64, len(units))
	cpus := make([]float64, len(units))
	firsts := make([]float64, len(units))
	recalls := make([]float64, len(units))
	for i, s := range units {
		walls[i] = ms(s.wall)
		cpus[i] = ms(s.cpu)
		firsts[i] = ms(s.out.firstClass)
		recalls[i] = s.out.recall
	}
	q1, q2, q3 := quartiles(walls)
	pct, tailValue, _ := tail(walls) // len(units) >= minUnits > minBeyond
	info["units"] = len(units)
	info["wall_ms.samples"] = walls
	info["wall_ms.quartiles"] = []float64{q1, q2, q3}
	info["wall_ms.tail_percentile"] = pct
	info["setup_s.samples"] = setups
	return map[string]metric{
		"setup_s":            {median(setups), "s"},
		"wall_ms.p50":        {median(walls), "ms"},
		"wall_ms.tail":       {tailValue, "ms"},
		"cpu_ms.p50":         {median(cpus), "ms"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
		"ok_frac":            {float64(attempted-failed) / float64(attempted), "ratio"},
		"first_class_ms.p50": {median(firsts), "ms"},
		"recall":             {median(recalls), "ratio"},
	}
}

// spanCoverFloor is the share of a traced unit's wall its layer spans must
// account for; below it the trace is missing a layer.
const spanCoverFloor = 0.90

// layerMetrics reduces the traced units to per-layer metrics: the median of
// each, plus the tracing overhead against the interleaved untraced units.
// Counters that differ between traced units of the same run are listed in
// info as scheduling-dependent.
func layerMetrics(traced, plain []sample, info map[string]any) map[string]metric {
	values := map[string][]float64{}
	for _, s := range traced {
		for name, v := range s.tr.values {
			values[name] = append(values[name], v)
		}
	}
	out := map[string]metric{}
	var varying []string
	for _, def := range layerDefs {
		vs := values[def.name]
		if len(vs) != len(traced) {
			panic("perfbench: layer metric " + def.name + " not recorded by every traced unit")
		}
		out[def.name] = metric{median(vs), def.unit}
		if def.unit != "ms" {
			s := sorted(vs)
			if s[0] != s[len(s)-1] {
				varying = append(varying, def.name)
			}
		}
	}
	sort.Strings(varying)
	tw := make([]float64, len(traced))
	for i, s := range traced {
		tw[i] = ms(s.wall)
	}
	pw := make([]float64, len(plain))
	for i, s := range plain {
		pw[i] = ms(s.wall)
	}
	base := median(pw)
	out["trace.overhead_frac"] = metric{(median(tw) - base) / base, "ratio"}
	info["traced_units"] = len(traced)
	info["plain_units"] = len(plain)
	info["traced_wall_ms.p50"] = median(tw)
	info["plain_wall_ms.p50"] = base
	info["counts_varying_within_run"] = varying
	return out
}
