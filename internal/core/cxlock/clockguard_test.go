//go:build tracecheck

package cxlock

import (
	"testing"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// TestUntracedPathReadsNoClock: with tracing off, every grant, release,
// upgrade and downgrade of a classed complex lock must skip the trace
// clock.
func TestUntracedPathReadsNoClock(t *testing.T) {
	trace.Disable()
	l := NewWith(Options{Name: t.Name(), Class: trace.NewClass("cxlocktest", t.Name(), trace.KindComplex)})
	th := sched.New("t")
	before := trace.ClockReads()
	for _, self := range []*sched.Thread{nil, th} {
		l.Write(self)
		l.WriteToRead(self)
		l.Done(self)
		l.Read(self)
		if !l.ReadToWrite(self) {
			l.Done(self)
		}
		l.Read(self)
		if l.TryReadToWrite(self) {
			l.Done(self)
		}
		if l.TryRead(self) {
			l.Done(self)
		}
		if l.TryWrite(self) {
			l.Done(self)
		}
	}
	if n := trace.ClockReads() - before; n != 0 {
		t.Fatalf("an untraced complex lock read the trace clock %d times", n)
	}
}

// TestTracedPairReadsClockOnlyWhenSampled: on an enabled class at the
// default rate, an unsampled uncontended read pair and write pair read no
// clock, and the sampled pair reads exactly two (the occupancy stamp and
// the release). A fresh class's first grant is always sampled.
func TestTracedPairReadsClockOnlyWhenSampled(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.SetSampling(trace.DefaultSampleRate)
	th := sched.New("t")
	for _, mode := range []string{"read", "write"} {
		l := NewWith(Options{Name: t.Name(), Class: trace.NewClass("cxlocktest", t.Name()+"-"+mode, trace.KindComplex)})
		acquire := l.Read
		if mode == "write" {
			acquire = l.Write
		}
		runs := 4 * trace.DefaultSampleRate
		unsampled := 0
		for i := 0; i < runs; i++ {
			before := trace.ClockReads()
			acquire(th)
			l.Done(th)
			switch n := trace.ClockReads() - before; {
			case i == 0 && n != 2:
				t.Fatalf("%s: the sampled first pair read the clock %d times, want 2", mode, n)
			case n == 0:
				unsampled++
			case n != 2:
				t.Fatalf("%s: pair %d read the clock %d times, want 0 or 2", mode, i, n)
			}
		}
		if unsampled < runs/2 {
			t.Fatalf("%s: only %d of %d pairs were unsampled", mode, unsampled, runs)
		}
	}
}
