package trace

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
)

// validateProm checks text against the Prometheus 0.0.4 exposition rules
// the scrapers we care about enforce: well-formed HELP/TYPE lines, every
// sample parseable with a float value, every sample's family declared, and
// all samples of a family contiguous.
func validateProm(t *testing.T, text string) map[string]int {
	t.Helper()
	declared := map[string]bool{}
	samples := map[string]int{}
	var last string
	closed := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !promTypeRe.MatchString(line) {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			declared[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: stray comment %q", i+1, line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			name := m[1]
			// A quantile-labelled family's samples share the base name.
			family := name
			if !declared[family] {
				for base := range declared {
					if strings.HasPrefix(name, base) && declared[base] {
						family = base
					}
				}
			}
			if !declared[family] {
				t.Fatalf("line %d: sample %q without TYPE declaration", i+1, name)
			}
			if closed[family] && last != family {
				t.Fatalf("line %d: family %q not contiguous", i+1, family)
			}
			if _, err := strconv.ParseFloat(m[3], 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, m[3], err)
			}
			if last != "" && last != family {
				closed[last] = true
			}
			last = family
			samples[family]++
		}
	}
	return samples
}

func TestWritePromValidExposition(t *testing.T) {
	Enable()
	defer Disable()
	c := NewClass("promtest", t.Name(), KindComplex)
	c.AcquiredAt(0, 0, true, 1500)
	c.ReleasedAt(0, 0, 900)
	c.CensusInc()
	defer c.CensusDec()

	var sb strings.Builder
	if err := WriteProm(&sb, Profiles()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	samples := validateProm(t, out)

	// Every registered class must appear in the acquisition family.
	nclasses := len(Classes())
	if samples["machlock_acquisitions_total"] != nclasses {
		t.Fatalf("acquisitions family has %d samples, want one per class (%d)",
			samples["machlock_acquisitions_total"], nclasses)
	}
	for _, want := range []string{
		`machlock_acquisitions_total{pkg="promtest",class="` + t.Name() + `",kind="complex"} 1`,
		`machlock_contended_acquisitions_total{pkg="promtest",class="` + t.Name() + `",kind="complex"} 1`,
		`quantile="0.99"`,
		`machlock_live_objects{pkg="promtest",class="` + t.Name() + `",kind="complex"} 1`,
		"machlock_hierarchy_violations_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHierarchyViolationSurface(t *testing.T) {
	ResetHierarchyViolations()
	t.Cleanup(ResetHierarchyViolations)
	if HierarchyViolations() != 0 || LastHierarchyViolation() != "" {
		t.Fatal("reset did not clear violation state")
	}

	// Concurrent reporters and readers: this is the lastReport data-race
	// regression, run meaningfully under -race.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				HierarchyViolation("violation report")
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = LastHierarchyViolation()
				_ = HierarchyViolations()
			}
		}()
	}
	wg.Wait()
	if got := HierarchyViolations(); got != 400 {
		t.Fatalf("violation count = %d, want 400", got)
	}
	if LastHierarchyViolation() != "violation report" {
		t.Fatalf("last report = %q", LastHierarchyViolation())
	}

	// The count and last report must flow through the text and expvar
	// exports.
	var text strings.Builder
	if err := WriteText(&text, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "hierarchy violations: 400") {
		t.Fatalf("text export missing violations:\n%s", text.String())
	}
	var vars strings.Builder
	if err := WriteVars(&vars, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vars.String(), `"Violations": 400`) ||
		!strings.Contains(vars.String(), "violation report") {
		t.Fatalf("vars export missing violations:\n%s", vars.String())
	}
}

func TestCensusGaugeSurvivesDisable(t *testing.T) {
	// The census must stay correct regardless of the enabled flag: a gauge
	// that misses lifetime events while tracing is off is wrong forever.
	Disable()
	c := NewClass("promtest", t.Name(), KindObject)
	c.CensusInc()
	c.CensusInc()
	Enable()
	c.CensusDec()
	Disable()
	if got := c.Live(); got != 1 {
		t.Fatalf("census = %d, want 1", got)
	}
	if p := c.Snapshot(); p.Live != 1 {
		t.Fatalf("snapshot census = %d, want 1", p.Live)
	}
	// reset() (via ResetProfiles) must NOT zero the census: the instances
	// it counts are still alive.
	ResetProfiles()
	if got := c.Live(); got != 1 {
		t.Fatalf("ResetProfiles zeroed the census: %d", got)
	}
	c.CensusDec()
}
