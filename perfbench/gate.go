package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"achilles/internal/campaign"
)

// goldenDir holds the golden corpus: one sorted class line per Trojan class
// and one file per registry target, relative to the repository root.
const goldenDir = "internal/protocols/testdata"

// readGolden loads one target's golden class lines.
func readGolden(target string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, target+".golden"))
	if err != nil {
		return nil, fmt.Errorf("golden for %s: %w", target, err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// readGoldens loads the golden class lines of every named target.
func readGoldens(targets []string) (map[string][]string, error) {
	out := make(map[string][]string, len(targets))
	for _, t := range targets {
		lines, err := readGolden(t)
		if err != nil {
			return nil, err
		}
		out[t] = lines
	}
	return out, nil
}

// matchLines compares a sorted class set with its golden and returns how
// many golden lines were found, plus an error naming the first difference
// when the two sets are not identical.
func matchLines(what string, got, want []string) (found int, err error) {
	have := make(map[string]bool, len(got))
	for _, l := range got {
		have[l] = true
	}
	var missing, extra []string
	for _, l := range want {
		if have[l] {
			found++
			delete(have, l)
		} else {
			missing = append(missing, l)
		}
	}
	for _, l := range got {
		if have[l] {
			extra = append(extra, l)
			delete(have, l)
		}
	}
	switch {
	case len(missing) > 0:
		err = fmt.Errorf("%s: %d golden class(es) missing, first: %s", what, len(missing), missing[0])
	case len(extra) > 0:
		err = fmt.Errorf("%s: %d class(es) not in the golden, first: %s", what, len(extra), extra[0])
	case len(got) != len(want):
		err = fmt.Errorf("%s: %d class lines, golden has %d", what, len(got), len(want))
	}
	return found, err
}

// reportLines returns the sorted class lines of a report stream.
func reportLines(reps []campaign.Report) []string {
	lines := make([]string, len(reps))
	for i, r := range reps {
		lines[i] = r.Class
	}
	sort.Strings(lines)
	return lines
}

// checkBundle gates a campaign bundle: every job named in goldens must be
// present, must not have errored or been truncated, and must reproduce its
// golden class set exactly. Jobs outside goldens (mutants) are not compared
// here. It returns the golden lines found and the golden lines expected, so
// a caller can report recall against the corpus even for a failing unit.
func checkBundle(b *campaign.Bundle, goldens map[string][]string) (found, total int, err error) {
	runs := map[string]campaign.RunManifest{}
	for _, rm := range b.Manifest.Runs {
		runs[rm.Target] = rm
	}
	targets := make([]string, 0, len(goldens))
	for t := range goldens {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	for _, t := range targets {
		want := goldens[t]
		total += len(want)
		rm, ok := runs[t]
		switch {
		case !ok:
			fail(fmt.Errorf("job %s missing from the bundle", t))
			continue
		case rm.Error != "":
			fail(fmt.Errorf("job %s errored: %s", rm.Key(), rm.Error))
			continue
		case rm.Truncated:
			fail(fmt.Errorf("job %s truncated", rm.Key()))
		}
		n, lerr := matchLines(rm.Key(), reportLines(b.Reports[rm.Key()]), want)
		found += n
		if lerr != nil {
			fail(lerr)
		}
	}
	return found, total, err
}
