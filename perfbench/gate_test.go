package main

import (
	"strings"
	"testing"

	"achilles/internal/campaign"
	"achilles/internal/core"
)

// bundleOf builds an in-memory bundle holding one optimized-mode job per
// target with the given class lines.
func bundleOf(classes map[string][]string) *campaign.Bundle {
	b := &campaign.Bundle{Reports: map[string][]campaign.Report{}}
	for target, lines := range classes {
		j := campaign.Job{Target: target, Mode: core.ModeOptimized}
		b.Manifest.Runs = append(b.Manifest.Runs, campaign.RunManifest{
			Target: j.Target, Mode: j.Mode.String(), Classes: len(lines),
		})
		reps := make([]campaign.Report, len(lines))
		for i, l := range lines {
			reps[i] = campaign.Report{Class: l}
		}
		b.Reports[j.Key()] = reps
	}
	return b
}

var gateGoldens = map[string][]string{
	"kv":   {"a @ [1] verified=true"},
	"pbft": {"b @ [2] verified=true", "c @ [3] verified=true"},
	"raft": nil, // a fixed target: no classes
}

func TestCheckBundleAcceptsGoldenOutput(t *testing.T) {
	found, total, err := checkBundle(bundleOf(gateGoldens), gateGoldens)
	if err != nil || found != 3 || total != 3 {
		t.Fatalf("checkBundle = %d/%d, %v; want 3/3, nil", found, total, err)
	}
}

func TestCheckBundleRejectsGoldenWithLineRemoved(t *testing.T) {
	short := map[string][]string{}
	for k, v := range gateGoldens {
		short[k] = v
	}
	short["pbft"] = short["pbft"][:1]
	_, _, err := checkBundle(bundleOf(gateGoldens), short)
	if err == nil || !strings.Contains(err.Error(), "not in the golden") {
		t.Fatalf("a class the golden lacks passed the gate: %v", err)
	}
	// And the other way round: the output misses a golden class.
	found, total, err := checkBundle(bundleOf(short), gateGoldens)
	if err == nil || !strings.Contains(err.Error(), "missing") || found != 2 || total != 3 {
		t.Fatalf("a missing class passed the gate: %d/%d, %v", found, total, err)
	}
}

func TestCheckBundleRejectsErroredTruncatedAndMissingJobs(t *testing.T) {
	for name, mutate := range map[string]func(*campaign.Bundle){
		"errored": func(b *campaign.Bundle) {
			for i := range b.Manifest.Runs {
				if b.Manifest.Runs[i].Target == "raft" {
					b.Manifest.Runs[i].Error = "solver exploded"
				}
			}
		},
		"truncated": func(b *campaign.Bundle) {
			for i := range b.Manifest.Runs {
				if b.Manifest.Runs[i].Target == "kv" {
					b.Manifest.Runs[i].Truncated = true
				}
			}
		},
		"missing": func(b *campaign.Bundle) {
			runs := b.Manifest.Runs[:0]
			for _, rm := range b.Manifest.Runs {
				if rm.Target != "pbft" {
					runs = append(runs, rm)
				}
			}
			b.Manifest.Runs = runs
		},
	} {
		b := bundleOf(gateGoldens)
		mutate(b)
		if _, _, err := checkBundle(b, gateGoldens); err == nil {
			t.Errorf("%s job passed the gate", name)
		}
	}
}

func TestCheckBundleIgnoresJobsWithoutGolden(t *testing.T) {
	b := bundleOf(gateGoldens)
	b.Manifest.Runs = append(b.Manifest.Runs, campaign.RunManifest{
		Target: "kv+mutant", Mode: core.ModeOptimized.String(), Error: "failed",
	})
	if _, _, err := checkBundle(b, gateGoldens); err != nil {
		t.Fatalf("a job outside the golden set failed the gate: %v", err)
	}
}
