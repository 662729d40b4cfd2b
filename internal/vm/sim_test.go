package vm

// Machsim suite for Section 8's dual count on a memory object: the last
// release racing a fill. The reference half is an atomic count, so there
// is a window between the decrement to zero and the terminator taking the
// object lock; this suite shows the paging half still keeps termination
// from freeing pages under a fill. Internal test package so the planted
// twin can reach the object's fields; machsim does not import vm, so
// there is no cycle.

import (
	"errors"
	"strings"
	"testing"

	"machlock/internal/machsim"
	"machlock/internal/sched"
)

// releaseScenario races a fault that misses against release dropping the
// object's last reference. Setup drops the creator's reference, so the
// releaser drops the entry's, behind the map's back, as in
// TestObjectDualCounts. On every schedule the fault succeeds or finds the
// object terminating, the count ends at zero, and every page is back in
// the pool.
func releaseScenario(release func(*Object, *sched.Thread)) machsim.Scenario {
	return func(s *machsim.Sim) {
		pool := NewPool(1)
		m := NewMap(pool)
		o := NewObject(pool, 1)
		s.Label(&o.lock, "vm.object.lock")
		s.Label(&o.refs, "vm.object.refs")
		init := sched.New("init")
		if err := m.Allocate(init, 0, 1, o, 0); err != nil {
			panic(err)
		}
		o.Release(init) // the creator's; the entry's is the last

		var faultErr error
		s.Spawn("faulter", func(t *sched.Thread) { faultErr = m.Fault(t, 0, false) })
		s.Spawn("releaser", func(t *sched.Thread) { release(o, t) })
		s.AtEnd(func(fail func(string, ...any)) {
			if faultErr != nil && !errors.Is(faultErr, ErrTerminating) {
				fail("fault = %v, want nil or ErrTerminating", faultErr)
			}
			if n := o.Refs(); n != 0 {
				fail("refs = %d after the last release, want 0", n)
			}
			if free, total := pool.FreeCount(), pool.Total(); free != total {
				fail("%d of %d pages free after termination", free, total)
			}
		})
	}
}

var releaseDFS = machsim.DFSConfig{Preemptions: 2, Reduction: machsim.ReduceSleep, MaxRuns: 20000}

// TestSimLastReleaseRacesFill: the real Release exhausts clean. A fill
// that enters the window between the decrement and the terminator's lock
// has raised pagingInProgress, so the drain waits for it.
func TestSimLastReleaseRacesFill(t *testing.T) {
	res := machsim.Explore(releaseScenario((*Object).Release), releaseDFS, machsim.Options{})
	machsim.Check(t, res)
	if !res.Exhausted {
		t.Fatalf("release-vs-fill not exhausted: %s", res.Summary())
	}
}

// TestSimReleaseFreeingBeforeDrainFound: a release that frees the page
// table before it drains the paging count loses the page a fill in
// flight brings in. The search must find that schedule.
func TestSimReleaseFreeingBeforeDrainFound(t *testing.T) {
	res := machsim.Explore(releaseScenario(releaseFreeingBeforeDrain), releaseDFS, machsim.Options{})
	if !res.Failed() {
		t.Fatalf("search missed the planted bug: %s", res.Summary())
	}
	if v := res.Violations[0]; v.Checker != "at-end" || !strings.Contains(v.Msg, "pages free") {
		t.Fatalf("found %s, want the leaked page\n%s", v, res.Report())
	}
}

// releaseFreeingBeforeDrain is the planted twin of Release: it frees the
// resident pages first and drains paging after, so a page still busy
// with its fill is unlinked with the table and never freed.
func releaseFreeingBeforeDrain(o *Object, t *sched.Thread) {
	if !o.refs.Release() {
		return
	}
	o.lock.Lock()
	o.terminating = true
	var resident []uint64
	for _, pg := range o.pages {
		if !pg.busy {
			resident = append(resident, pg.pa)
		}
	}
	o.pages = nil
	o.lock.Unlock()
	for _, pa := range resident {
		o.pool.Free(pa)
	}
	o.lock.Lock()
	for o.pagingInProgress > 0 {
		sched.ThreadSleep(t, sched.Event(&o.pagingInProgress), func() { o.lock.Unlock() })
		o.lock.Lock()
	}
	o.lock.Unlock()
}
