package deadlock

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
)

func TestWaitGraphDOTRendersHoldsAndWaits(t *testing.T) {
	tr := NewTracker()
	a, b := cxlock.NewWith(cxlock.Options{Sleep: true}), cxlock.NewWith(cxlock.Options{Sleep: true})
	tr.Name(a, "A")
	tr.Name(b, "B")
	t1, t2 := sched.New("t1"), sched.New("t2")
	tr.Acquired(a, t1)
	tr.Acquired(a, t1) // recursive: edge label should carry the count
	tr.Acquired(b, t2)
	dot := tr.WaitGraphDOT()
	for _, want := range []string{
		"digraph waitfor",
		`"thread:t1" [shape=ellipse]`,
		`"lock:A" [shape=box]`,
		`"lock:A" -> "thread:t1" [label="holds x2"]`,
		`"lock:B" -> "thread:t2" [label="holds"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	tr.Waiting(a, t2)
	dot = tr.WaitGraphDOT()
	if !strings.Contains(dot, `"thread:t2" -> "lock:A" [label="waits"]`) {
		t.Fatalf("DOT missing wait edge:\n%s", dot)
	}
	// Deterministic: two renders of the same state are identical.
	if again := tr.WaitGraphDOT(); again != dot {
		t.Fatalf("DOT not deterministic:\n%s\nvs\n%s", dot, again)
	}
}

// TestTrackerSeesBiasedReaders is the PR 2 regression: a reader that takes
// the BRAVO fast path (never touching the interlock) must still be visible
// to the deadlock tracker as a holder, and must be able to participate in
// a detected cycle. If the fast path ever stops emitting observer events,
// every deadlock through a read-held biased lock goes dark.
func TestTrackerSeesBiasedReaders(t *testing.T) {
	tr := withTracker(t)
	l1 := cxlock.NewWith(cxlock.Options{Sleep: true, ReaderBias: true, Name: "L1"})
	l2 := cxlock.NewWith(cxlock.Options{Sleep: true, Name: "L2"})
	tr.Name(l1, "L1")
	tr.Name(l2, "L2")

	var firstHolds sync.WaitGroup
	firstHolds.Add(2)
	gate := make(chan struct{})
	sched.Go("t1", func(self *sched.Thread) {
		l1.Read(self) // must take the bias fast path (no contention yet)
		firstHolds.Done()
		<-gate
		l2.Write(self) // blocks forever: t2 holds L2
		l2.Done(self)
		l1.Done(self)
	})
	sched.Go("t2", func(self *sched.Thread) {
		l2.Write(self)
		firstHolds.Done()
		<-gate
		l1.Write(self) // blocks forever: t1 holds L1 for reading
		l1.Done(self)
		l2.Done(self)
	})
	firstHolds.Wait()

	// Prove the read really went through the fast path, so the test is
	// exercising the biased-reader visibility, not the slow path.
	if got := l1.Stats().BiasedReads; got < 1 {
		t.Fatalf("setup: read did not take bias fast path (BiasedReads=%d)", got)
	}
	// The fast-path hold must already be in the tracker.
	if snap := tr.Snapshot(); !strings.Contains(snap, "L1 held by t1") {
		t.Fatalf("biased read hold invisible to tracker:\n%s", snap)
	}
	close(gate)

	var cycles []Cycle
	deadline := time.Now().Add(5 * time.Second)
	for len(cycles) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("deadlock through biased read hold not detected; state:\n%s", tr.Snapshot())
		}
		cycles = tr.DetectStable(3, 2*time.Millisecond)
	}
	text := cycles[0].String()
	for _, want := range []string{"t1", "t2", "L1", "L2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("cycle report %q missing %q", text, want)
		}
	}
	// The wait graph names the same stall.
	dot := tr.WaitGraphDOT()
	for _, want := range []string{
		`"lock:L1" -> "thread:t1"`,
		`"thread:t2" -> "lock:L1" [label="waits"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("wait graph missing %q:\n%s", want, dot)
		}
	}
	// As in TestDetectsABBADeadlock, the two goroutines are intentionally
	// left parked: a true deadlock has no legal third-party resolution.
}

// TestDetectStableQuietUnderSpinChurn runs real spinning waiters —
// consistently-ordered lock traffic with heavy contention — and asserts
// the stable detector never reports a cycle while the churn is live, and
// that the tracker's state drains completely once the threads exit.
func TestDetectStableQuietUnderSpinChurn(t *testing.T) {
	tr := withTracker(t)
	a, b := cxlock.NewWith(cxlock.Options{}), cxlock.NewWith(cxlock.Options{}) // spin locks: transient waiters
	tr.Name(a, "A")
	tr.Name(b, "B")

	var stop atomic.Bool
	var threads []*sched.Thread
	for i := 0; i < 3; i++ {
		threads = append(threads, sched.Go("w"+string(rune('0'+i)), func(self *sched.Thread) {
			for !stop.Load() {
				a.Write(self)
				b.Write(self)
				b.Done(self)
				a.Done(self)
			}
		}))
	}
	for i := 0; i < 2; i++ {
		threads = append(threads, sched.Go("r"+string(rune('0'+i)), func(self *sched.Thread) {
			for !stop.Load() {
				a.Read(self)
				b.Read(self)
				b.Done(self)
				a.Done(self)
			}
		}))
	}

	for i := 0; i < 10; i++ {
		if cycles := tr.DetectStable(3, time.Millisecond); len(cycles) != 0 {
			stop.Store(true)
			t.Fatalf("false positive under spin churn: %v", cycles)
		}
	}
	stop.Store(true)
	for _, th := range threads {
		th.Join()
	}
	if snap := tr.Snapshot(); snap != "" {
		t.Fatalf("holds/waits leaked after churn:\n%s", snap)
	}
}
