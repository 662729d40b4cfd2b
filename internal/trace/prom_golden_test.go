package trace

import (
	"regexp"
	"sort"
	"strings"
	"testing"
)

// promSchema extracts {family -> type, sorted label keys} from a 0.0.4
// exposition. Families that emit no samples get label keys "-".
func promSchema(t *testing.T, text string) map[string][2]string {
	t.Helper()
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^{}]*)\})? \S+$`)
	labelRe := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if m := typeRe.FindStringSubmatch(line); m != nil {
			types[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample: %q", line)
		}
		if labels[m[1]] == nil {
			labels[m[1]] = map[string]bool{}
		}
		for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
			labels[m[1]][lm[1]] = true
		}
	}
	out := make(map[string][2]string, len(types))
	for fam, typ := range types {
		keys := "-"
		if ls := labels[fam]; len(ls) > 0 {
			sorted := make([]string, 0, len(ls))
			for k := range ls {
				sorted = append(sorted, k)
			}
			sort.Strings(sorted)
			keys = strings.Join(sorted, ",")
		} else if ls, ok := labels[fam]; ok && len(ls) == 0 {
			keys = "" // samples exist, no labels
		}
		out[fam] = [2]string{typ, keys}
	}
	return out
}

// TestWritePromGoldenSchema pins the exposition contract: family names,
// types, and label keys. Dashboards and scrape configs key on exactly
// these strings — a rename or a dropped label is a breaking change and
// must show up here as a diff, not in production.
func TestWritePromGoldenSchema(t *testing.T) {
	Enable()
	defer Disable()

	// One active class per mechanism kind so every family emits labelled
	// samples (a family with no samples cannot prove its label keys).
	cx := NewClass("goldtest", t.Name()+".cx", KindComplex)
	cx.AcquiredAt(0, 0, true, 100)
	cx.ReleasedAt(0, 0, 50)
	cx.Upgraded(false)
	cx.CensusInc()
	defer cx.CensusDec()
	ref := NewClass("goldtest", t.Name()+".ref", KindRef)
	ref.RefClone(1)
	ref.RefRelease(0)
	op := NewOp("goldtest", t.Name()+".op")
	BeginSpan(nil, op).End()

	var sb strings.Builder
	if err := WriteProm(&sb, Profiles()); err != nil {
		t.Fatal(err)
	}
	got := promSchema(t, sb.String())

	classKeys := "class,kind,pkg"
	classQKeys := "class,kind,pkg,quantile"
	opKeys := "op,pkg"
	opQKeys := "op,pkg,quantile"
	want := map[string][2]string{
		"machlock_acquisitions_total":           {"counter", classKeys},
		"machlock_contended_acquisitions_total": {"counter", classKeys},
		"machlock_releases_total":               {"counter", classKeys},
		"machlock_contention_ratio":             {"gauge", classKeys},
		"machlock_hold_time_ns":                 {"gauge", classQKeys},
		"machlock_hold_time_ns_mean":            {"gauge", classKeys},
		"machlock_hold_time_ns_max":             {"gauge", classKeys},
		"machlock_wait_time_ns":                 {"gauge", classQKeys},
		"machlock_wait_time_ns_mean":            {"gauge", classKeys},
		"machlock_wait_time_ns_max":             {"gauge", classKeys},
		"machlock_upgrades_total":               {"counter", classKeys},
		"machlock_failed_upgrades_total":        {"counter", classKeys},
		"machlock_downgrades_total":             {"counter", classKeys},
		"machlock_bias_revocations_total":       {"counter", classKeys},
		"machlock_ref_clones_total":             {"counter", classKeys},
		"machlock_ref_releases_total":           {"counter", classKeys},
		"machlock_deactivates_total":            {"counter", classKeys},
		"machlock_live_objects":                 {"gauge", classKeys},
		"machlock_hierarchy_violations_total":   {"counter", ""},
		"machlock_op_total":                     {"counter", opKeys},
		"machlock_op_contended_total":           {"counter", opKeys},
		"machlock_op_latency_ns":                {"gauge", opQKeys},
		"machlock_op_latency_ns_mean":           {"gauge", opKeys},
		"machlock_op_latency_ns_max":            {"gauge", opKeys},
		"machlock_op_lock_wait_ns":              {"gauge", opQKeys},
		"machlock_op_work_ns":                   {"gauge", opQKeys},
	}

	for fam, w := range want {
		g, ok := got[fam]
		if !ok {
			t.Errorf("family %s missing from exposition", fam)
			continue
		}
		if g != w {
			t.Errorf("family %s: got type=%q labels=%q, want type=%q labels=%q",
				fam, g[0], g[1], w[0], w[1])
		}
	}
	for fam := range got {
		if _, ok := want[fam]; !ok {
			t.Errorf("family %s not in the golden schema — new families must be added here deliberately", fam)
		}
	}

	// The summary-style quantile ladders are pinned exactly: three rungs.
	for _, fam := range []string{"machlock_hold_time_ns", "machlock_wait_time_ns",
		"machlock_op_latency_ns", "machlock_op_lock_wait_ns", "machlock_op_work_ns"} {
		for _, q := range []string{`quantile="0.5"`, `quantile="0.9"`, `quantile="0.99"`} {
			if !strings.Contains(sb.String(), fam+"{") {
				t.Errorf("family %s emitted no labelled samples", fam)
				break
			}
			if !regexp.MustCompile(fam + `\{[^}]*` + q).MatchString(sb.String()) {
				t.Errorf("family %s missing rung %s", fam, q)
			}
		}
	}
}
