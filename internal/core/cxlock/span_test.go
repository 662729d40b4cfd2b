package cxlock

// Integration tests for span wait crediting: real sched threads contend
// on a real lock inside operation spans (trace.BeginSpan), and wait()
// must credit the time to the span with no install step. The raw -race
// test uses host scheduling; the machsim test re-checks the span
// accounting invariants over explored schedules.

import (
	"testing"
	"time"

	"machlock/internal/machsim"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// TestSpanCreditsLockWait: a holder pins the lock while a waiter runs an
// operation span around a contended Write. The span's latency must split
// into a nonzero lock-wait part strictly below the total.
func TestSpanCreditsLockWait(t *testing.T) {
	trace.Enable()
	defer trace.Disable()

	op := trace.NewOp("cxlocktest", t.Name())
	l := NewWith(Options{
		Sleep: true,
		Name:  t.Name(),
		Class: trace.NewClass("cxlocktest", t.Name()+"-lock", trace.KindComplex),
	})

	held := make(chan struct{})
	holder := sched.Go("holder", func(self *sched.Thread) {
		l.Write(self)
		close(held)
		time.Sleep(3 * time.Millisecond)
		l.Done(self)
	})
	var spanWait, spanTotal int64
	waiter := sched.Go("waiter", func(self *sched.Thread) {
		<-held
		sp := trace.BeginSpan(self, op)
		start := time.Now()
		l.Write(self) // blocks ~3ms; wait() credits the span
		l.Done(self)
		spanWait = sp.WaitNs()
		sp.End()
		spanTotal = time.Since(start).Nanoseconds()
	})
	holder.Join()
	waiter.Join()

	if spanWait <= 0 {
		t.Fatal("span credited no lock wait for a blocked Write")
	}
	if spanWait > spanTotal {
		t.Fatalf("span wait %dns exceeds the operation's wall clock %dns", spanWait, spanTotal)
	}
	p := op.Snapshot()
	if p.Acquisitions != 1 || p.Contended != 1 {
		t.Fatalf("op accounting wrong: %+v", p)
	}
}

// TestSimSpanNestingWithLockWaits re-runs the nesting + wait-credit shape
// under machsim's explored schedules: two threads, each opening an outer
// and inner span and taking a contended sleep lock inside the inner one.
// On every schedule the span counts must be exact, waits must be
// non-negative, and the credited wait can never exceed the span total.
func TestSimSpanNestingWithLockWaits(t *testing.T) {
	trace.Enable()
	defer trace.Disable()

	outerOp := trace.NewOp("cxlocktest", "sim.outer")
	innerOp := trace.NewOp("cxlocktest", "sim.inner")

	scenario := func(s *machsim.Sim) {
		l := NewWith(Options{Sleep: true, Name: "span.sim"})
		s.Label(l, "span.sim")
		before := outerOp.Snapshot().Acquisitions
		beforeInner := innerOp.Snapshot().Acquisitions
		body := func(th *sched.Thread) {
			outer := trace.BeginSpan(th, outerOp)
			inner := trace.BeginSpan(th, innerOp)
			l.Write(th)
			l.Done(th)
			if inner.WaitNs() < 0 {
				s.Fail("negative span wait %d", inner.WaitNs())
			}
			inner.End()
			if trace.CurrentSpan(th) != outer {
				s.Fail("parent span lost after child End")
			}
			if outer.WaitNs() < inner.WaitNs() {
				s.Fail("child wait %d not propagated to parent (%d)", inner.WaitNs(), outer.WaitNs())
			}
			outer.End()
			if trace.CurrentSpan(th) != nil {
				s.Fail("span registry not empty after outermost End")
			}
		}
		s.Spawn("a", body)
		s.Spawn("b", body)
		s.AtEnd(func(fail func(string, ...any)) {
			if got := outerOp.Snapshot().Acquisitions - before; got != 2 {
				fail("outer spans recorded %d, want 2", got)
			}
			if got := innerOp.Snapshot().Acquisitions - beforeInner; got != 2 {
				fail("inner spans recorded %d, want 2", got)
			}
		})
	}
	machsim.Check(t, machsim.Explore(scenario, machsim.DFSConfig{Preemptions: 2, MaxRuns: 1000}, machsim.Options{}))
	machsim.Check(t, machsim.Random(scenario, 100, 7, machsim.Options{}))
}
