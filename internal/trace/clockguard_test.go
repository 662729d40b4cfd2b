//go:build tracecheck

package trace

import "testing"

// noClockReads fails t if f reads the trace clock. Recording methods on a
// disabled class must return before touching the clock: a read taken
// ahead of the On check costs every untraced lock operation a vDSO call.
func noClockReads(t *testing.T, what string, f func()) {
	t.Helper()
	before := ClockReads()
	f()
	if n := ClockReads() - before; n != 0 {
		t.Errorf("%s read the trace clock %d times with tracing off", what, n)
	}
}

func TestDisabledClassReadsNoClock(t *testing.T) {
	Disable()
	c := testClass(t, KindComplex)
	var nilClass *Class
	for _, cl := range []*Class{c, nilClass} {
		noClockReads(t, "AcquiredAt", func() { cl.AcquiredAt(0, 0, true, 1); cl.AcquiredAt(0, 1, false, 0) })
		noClockReads(t, "ReleasedAt", func() { cl.ReleasedAt(0, 0, 1); cl.ReleasedAt(0, 1, 1) })
		noClockReads(t, "WaitingAt", func() { cl.WaitingAt(0, 0); cl.WaitingAt(0, 1) })
		noClockReads(t, "DoneWaitingAt", func() { cl.DoneWaitingAt(0, 0, 1); cl.DoneWaitingAt(0, 1, 1) })
		noClockReads(t, "Upgraded", func() { cl.Upgraded(true); cl.Upgraded(false) })
		noClockReads(t, "Downgraded", func() { cl.Downgraded() })
		noClockReads(t, "RefClone/RefRelease", func() { cl.RefClone(2); cl.RefRelease(1) })
		noClockReads(t, "Deactivated", func() { cl.Deactivated() })
		noClockReads(t, "BiasRevoked", func() { cl.BiasRevoked() })
	}
	noClockReads(t, "HierarchyViolation", func() { HierarchyViolation("clockguard") })
}

func TestDisabledSpanReadsNoClock(t *testing.T) {
	Disable()
	op := opClass(t, "")
	owner := stubOwner(7)
	noClockReads(t, "span", func() {
		s := BeginSpan(owner, op)
		SpanWaitStart(owner)
		SpanWaitEnd(owner)
		s.End()
	})
}

// The counter itself works: an enabled class's event reads the clock once.
func TestEnabledClassReadsClockOnce(t *testing.T) {
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	before := ClockReads()
	c.AcquiredAt(0, 0, false, 0)
	if n := ClockReads() - before; n != 1 {
		t.Fatalf("AcquiredAt read the clock %d times, want 1", n)
	}
	before = ClockReads()
	c.AcquiredAt(Now(), 0, false, 0)
	if n := ClockReads() - before; n != 1 {
		t.Fatalf("AcquiredAt with a caller stamp read the clock %d times, want 1 (the caller's)", n)
	}
}

// TestUnsampledEventsReadNoClock: on an enabled class at the default
// rate, counting is all an acquisition, a release or an unsampled
// reference operation does — no clock read. Acquire and Release never
// read it (a sampled lock reads it itself); a sampled reference event
// reads it once, and so does a release to zero, which is always recorded.
func TestUnsampledEventsReadNoClock(t *testing.T) {
	Enable()
	defer Disable()
	withSampling(t, DefaultSampleRate)
	c := testClass(t, KindObject)
	runs := 4 * DefaultSampleRate
	for i := 0; i < runs; i++ {
		noClockReadsOn(t, "Acquire/Release", func() {
			c.Acquire()
			c.Release()
		})
	}
	for _, ref := range []func(){func() { c.RefClone(2) }, func() { c.RefRelease(1) }} {
		unsampled := 0
		for i := 0; i < runs; i++ {
			before := ClockReads()
			ref()
			switch n := ClockReads() - before; {
			case i == 0 && n != 1:
				t.Fatalf("the sampled first ref event read the clock %d times, want 1", n)
			case n == 0:
				unsampled++
			case n != 1:
				t.Fatalf("ref event %d read the clock %d times, want 0 or 1", i, n)
			}
		}
		if unsampled < runs/2 {
			t.Fatalf("only %d of %d ref events were unsampled", unsampled, runs)
		}
	}
	before := ClockReads()
	c.RefRelease(0)
	if n := ClockReads() - before; n != 1 {
		t.Fatalf("release to zero read the trace clock %d times, want 1", n)
	}
}

// noClockReadsOn fails t if f reads the trace clock with tracing on.
func noClockReadsOn(t *testing.T, what string, f func()) {
	t.Helper()
	before := ClockReads()
	f()
	if n := ClockReads() - before; n != 0 {
		t.Fatalf("%s read the trace clock %d times", what, n)
	}
}
