package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict applies one metric's bound: b against a, where a is the baseline.
// A change is a regression or an improvement only beyond the bound, as a
// share of a.
func verdict(m specMetric, a, b float64) string {
	if a == 0 {
		return "no-base"
	}
	rel := (b - a) / a
	if m.Better == "lower" {
		rel = -rel
	}
	switch {
	case rel < -m.Bound:
		return "regressed"
	case rel > m.Bound:
		return "improved"
	}
	return "ok"
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints one row per end-to-end metric and workload. It exits 1
// when a row regressed, and refuses sets measured at different widths.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	code, err := compareFiles(pathA, pathB, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
	}
	return code
}

func compareFiles(pathA, pathB string, out io.Writer) (int, error) {
	sp, err := loadSpec(specFile)
	if err != nil {
		return 2, err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return 2, err
	}
	return compareSets(sp, a, b, out)
}

func compareSets(sp *spec, a, b *resultSet, out io.Writer) (int, error) {
	if a.W != b.W {
		return 2, fmt.Errorf("refusing to compare W=%d with W=%d: the sets were measured at different widths", a.W, b.W)
	}
	fmt.Fprintf(out, "a: commit %s seed %d %s; b: commit %s seed %d %s; W=%d\n",
		a.Commit, a.Seed, a.GoVersion, b.Commit, b.Seed, b.GoVersion, a.W)
	fmt.Fprintf(out, "%-14s %-16s %16s %16s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return 2, fmt.Errorf("%s: %s is missing from a result set (was it a -trace run?)", wl.name, m.Name)
			}
			v := verdict(m, va.Value, vb.Value)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-16s %16.4f %16.4f %+8.1f%% %6.0f%%  %s\n",
				wl.name, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value, 100*m.Bound, v)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(out, "%-14s failed operations: a %d, b %d\n", wl.name, ra.Failed, rb.Failed)
			code = 1
		}
	}
	return code, nil
}
