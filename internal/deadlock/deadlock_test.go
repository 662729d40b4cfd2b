package deadlock

import (
	"strings"
	"sync"
	"testing"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
	"machlock/internal/vm"
)

// withTracker installs a fresh tracker for the test and removes it after.
func withTracker(t *testing.T) *Tracker {
	t.Helper()
	tr := NewTracker()
	tr.Install()
	t.Cleanup(tr.Uninstall)
	return tr
}

func TestNoCycleOnHealthyLocking(t *testing.T) {
	tr := withTracker(t)
	a, b := cxlock.NewWith(cxlock.Options{Sleep: true}), cxlock.NewWith(cxlock.Options{Sleep: true})
	tr.Name(a, "A")
	tr.Name(b, "B")
	w := sched.Go("w", func(self *sched.Thread) {
		for i := 0; i < 100; i++ {
			a.Write(self)
			b.Write(self)
			b.Done(self)
			a.Done(self)
		}
	})
	w.Join()
	if cycles := tr.Detect(); len(cycles) != 0 {
		t.Fatalf("phantom cycles: %v", cycles)
	}
	if tr.Snapshot() != "" {
		t.Fatalf("holds/waits leaked:\n%s", tr.Snapshot())
	}
}

func TestDetectsABBADeadlock(t *testing.T) {
	tr := withTracker(t)
	a, b := cxlock.NewWith(cxlock.Options{Sleep: true}), cxlock.NewWith(cxlock.Options{Sleep: true})
	tr.Name(a, "A")
	tr.Name(b, "B")

	// Both threads must hold their first lock before either goes for its
	// second, or one can sneak through both and no deadlock forms.
	var firstHolds sync.WaitGroup
	firstHolds.Add(2)
	gate := make(chan struct{})
	t1 := sched.Go("t1", func(self *sched.Thread) {
		a.Write(self)
		firstHolds.Done()
		<-gate
		b.Write(self) // blocks forever: t2 holds B
		b.Done(self)
		a.Done(self)
	})
	t2 := sched.Go("t2", func(self *sched.Thread) {
		b.Write(self)
		firstHolds.Done()
		<-gate
		a.Write(self) // blocks forever: t1 holds A
		a.Done(self)
		b.Done(self)
	})
	firstHolds.Wait()
	close(gate)

	var cycles []Cycle
	deadline := time.Now().Add(5 * time.Second)
	for len(cycles) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ABBA deadlock not detected; state:\n%s", tr.Snapshot())
		}
		cycles = tr.DetectStable(3, 2*time.Millisecond)
	}
	text := cycles[0].String()
	for _, want := range []string{"t1", "t2", "A", "B", "waits", "held-by"} {
		if !strings.Contains(text, want) {
			t.Fatalf("cycle report %q missing %q", text, want)
		}
	}

	// A true deadlock has no legal resolution from a third party (forcing
	// a release would corrupt the protocol), so the two goroutines are
	// intentionally left parked on their test-local locks.
	_ = t1
	_ = t2
}

func TestDetectsSection71Cycle(t *testing.T) {
	// The real thing: vm_map_pageable's recursive hold vs the pageout
	// daemon, observed as a wait-for cycle… of length 1 edge? No — the
	// daemon waits for the map lock held by the wirer, and the wirer
	// waits for memory (not a lock), so the graph shows the daemon
	// blocked on the wirer. A full CYCLE needs both directions; here we
	// assert the tracker at least pins the daemon's wait on the wirer's
	// hold, which is the diagnostic a developer needs.
	tr := withTracker(t)
	pool := vm.NewPool(4)
	m := vm.NewMap(pool)
	hog := vm.NewObject(pool, 4)
	target := vm.NewObject(pool, 4)
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, hog, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(boss, 10, 4, target, 0); err != nil {
		t.Fatal(err)
	}
	for va := uint64(0); va < 4; va++ {
		if err := m.Fault(boss, va, false); err != nil {
			t.Fatal(err)
		}
	}

	wirer := sched.Go("wirer", func(self *sched.Thread) {
		m.WireRecursive(self, 10, 14)
	})
	for m.ShortageWaits() == 0 {
		time.Sleep(time.Millisecond)
	}
	daemon := sched.Go("pageout", func(self *sched.Thread) {
		m.ReclaimPages(self, 16) // blocks behind the recursive read hold
	})

	// The daemon must appear waiting on a lock held by the wirer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := tr.Snapshot()
		if strings.Contains(snap, "pageout waiting for") &&
			strings.Contains(snap, "held by wirer") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall not visible in tracker:\n%s", snap)
		}
		time.Sleep(time.Millisecond)
	}
	// Resolve and clean up.
	pool.EmergencyAdd(4)
	wirer.Join()
	daemon.Join()
}

func TestReleasedBalancesMultisets(t *testing.T) {
	// Exercise the multiset accounting directly.
	tr2 := NewTracker()
	thread := sched.New("x")
	lock := cxlock.NewWith(cxlock.Options{})
	tr2.Acquired(lock, thread)
	tr2.Acquired(lock, thread)
	tr2.Released(lock, thread)
	if snap := tr2.Snapshot(); !strings.Contains(snap, "x2") && !strings.Contains(snap, "x (x1)") {
		// One hold must remain.
		if !strings.Contains(snap, "held by x") {
			t.Fatalf("multiset broken:\n%s", snap)
		}
	}
	tr2.Released(lock, thread)
	if snap := tr2.Snapshot(); snap != "" {
		t.Fatalf("holds leaked:\n%s", snap)
	}
}

func TestDetectStableFiltersTransients(t *testing.T) {
	tr := NewTracker()
	a := cxlock.NewWith(cxlock.Options{})
	t1, t2 := sched.New("t1"), sched.New("t2")
	// Fabricate a transient: a cycle present now but gone in later
	// samples.
	tr.Acquired(a, t1)
	tr.Waiting(a, t2)
	tr.Acquired(a, t2) // t2 also holds it (read share), t1 waits on t2's lock
	tr.Waiting(a, t1)
	if len(tr.Detect()) == 0 {
		t.Fatal("fabricated cycle not detected by single snapshot")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		tr.DoneWaiting(a, t1)
		tr.DoneWaiting(a, t2)
	}()
	if cycles := tr.DetectStable(5, 3*time.Millisecond); len(cycles) != 0 {
		t.Fatalf("transient cycle reported as stable: %v", cycles)
	}
}
