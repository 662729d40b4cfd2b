//go:build tracecheck

package splock

import (
	"testing"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// TestUntracedPathReadsNoClock: with tracing off, a classed simple lock —
// plain and checked — must not read the trace clock.
func TestUntracedPathReadsNoClock(t *testing.T) {
	trace.Disable()
	c := trace.NewClass("splocktest", t.Name(), trace.KindSpin)
	before := trace.ClockReads()
	l := NewWith(Opts{Class: c})
	l.Lock()
	l.Unlock()
	if l.TryLock() {
		l.Unlock()
	}
	ck := NewChecked(t.Name())
	th := sched.New("t")
	ck.Lock(th)
	ck.Unlock(th)
	if ck.TryLock(th) {
		ck.Unlock(th)
	}
	if n := trace.ClockReads() - before; n != 0 {
		t.Fatalf("untraced simple locks read the trace clock %d times", n)
	}
}

// TestTracedPairReadsClockOnlyWhenSampled: on an enabled class at the
// default rate, an unsampled uncontended pair reads no clock and the
// sampled pair reads exactly two (the hold stamp and the release). A
// fresh class's first acquisition is always sampled; later ones are
// sampled 1-in-N per counter shard. Each pair kind gets a fresh class:
// the shard is picked by a stack address, so once the goroutine's stack
// has grown a second kind can land on a shard the first left at any
// count.
func TestTracedPairReadsClockOnlyWhenSampled(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.SetSampling(trace.DefaultSampleRate)
	c := trace.NewClass("splocktest", t.Name(), trace.KindSpin)
	l := NewWith(Opts{Class: c})
	checkPairReads(t, "lock", func() { l.Lock(); l.Unlock() })
	c = trace.NewClass("splocktest", t.Name()+"-try", trace.KindSpin)
	l = NewWith(Opts{Class: c})
	checkPairReads(t, "try", func() {
		if l.TryLock() {
			l.Unlock()
		}
	})
}

// checkPairReads runs pair 4N times: the first run must read the clock
// exactly twice (sampled), every run 0 or 2 times, and most runs 0.
func checkPairReads(t *testing.T, what string, pair func()) {
	t.Helper()
	runs := 4 * trace.DefaultSampleRate
	unsampled := 0
	for i := 0; i < runs; i++ {
		before := trace.ClockReads()
		pair()
		switch n := trace.ClockReads() - before; {
		case i == 0 && n != 2:
			t.Fatalf("%s: the sampled first pair read the clock %d times, want 2", what, n)
		case n == 0:
			unsampled++
		case n != 2:
			t.Fatalf("%s: pair %d read the clock %d times, want 0 (unsampled) or 2 (sampled)", what, i, n)
		}
	}
	if unsampled < runs/2 {
		t.Fatalf("%s: only %d of %d pairs were unsampled at rate %d", what, unsampled, runs, trace.DefaultSampleRate)
	}
}
