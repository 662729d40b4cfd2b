package monitor

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"machlock/internal/core/splock"
	"machlock/internal/trace"
)

// The simple-lock census families and their types, as scrapers know them.
var censusFamilies = map[string]string{
	"machlock_monitor_splock_acquisitions_total": "counter",
	"machlock_monitor_splock_contended_total":    "counter",
	"machlock_monitor_splock_releases_total":     "counter",
	"machlock_monitor_splock_spinners":           "gauge",
}

// scrapeCensus renders m's metrics and returns the census families'
// values and declared types.
func scrapeCensus(t *testing.T, m *Monitor) (vals map[string]int64, types map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	m.WriteMetrics(&buf)
	vals, types = map[string]int64{}, map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, ok := censusFamilies[f[2]]; ok {
				types[f[2]] = f[3]
			}
		case len(f) == 2:
			if _, ok := censusFamilies[f[0]]; ok {
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				vals[f[0]] = v
			}
		}
	}
	return vals, types
}

// sumSimpleLockProfiles sums the census quantities over the simple-lock
// classes straight from the trace layer.
func sumSimpleLockProfiles() map[string]int64 {
	sum := map[string]int64{}
	for _, c := range trace.Classes() {
		if c.Kind() != trace.KindSpin && c.Kind() != trace.KindObject {
			continue
		}
		p := c.Snapshot()
		sum["machlock_monitor_splock_acquisitions_total"] += p.Acquisitions
		sum["machlock_monitor_splock_contended_total"] += p.Contended
		sum["machlock_monitor_splock_releases_total"] += p.Releases
		sum["machlock_monitor_splock_spinners"] += c.Spinners()
	}
	return sum
}

// TestSpinCensusReadsClasses: the census families are the summed
// simple-lock class profiles, keep their names and types, and the
// spinners gauge shows a pile-up of waiters and is back at 0 once they
// are through.
func TestSpinCensusReadsClasses(t *testing.T) {
	m := New(Config{Interval: time.Hour})
	startMonitor(t, m)
	const waiters = 3
	for i, kind := range []trace.Kind{trace.KindSpin, trace.KindObject} {
		c := trace.NewClass("montest", fmt.Sprintf("%s-%d", t.Name(), i), kind)
		l := splock.NewWith(splock.Opts{Class: c})
		l.Lock()
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					l.Lock()
					l.Unlock()
				}
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.Spinners() != waiters {
			if time.Now().After(deadline) {
				t.Fatalf("%v: %d spinners, want %d", kind, c.Spinners(), waiters)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if vals, _ := scrapeCensus(t, m); vals["machlock_monitor_splock_spinners"] < waiters {
			t.Fatalf("%v: scrape shows %d spinners during a pile-up of %d",
				kind, vals["machlock_monitor_splock_spinners"], waiters)
		}
		l.Unlock()
		wg.Wait()
		if got := c.Snapshot().Contended; got < waiters {
			t.Fatalf("%v: class counted %d contended acquisitions, want >= %d", kind, got, waiters)
		}
	}

	vals, types := scrapeCensus(t, m)
	want := sumSimpleLockProfiles()
	for fam, typ := range censusFamilies {
		if types[fam] != typ {
			t.Errorf("family %s: type %q, want %q", fam, types[fam], typ)
		}
		if vals[fam] != want[fam] {
			t.Errorf("%s = %d, want the summed class profiles' %d", fam, vals[fam], want[fam])
		}
	}
	if vals["machlock_monitor_splock_spinners"] != 0 {
		t.Errorf("spinners gauge = %d after every waiter got through", vals["machlock_monitor_splock_spinners"])
	}
	if vals["machlock_monitor_splock_contended_total"] < 2*waiters {
		t.Errorf("contended total %d misses the pile-ups", vals["machlock_monitor_splock_contended_total"])
	}
}
