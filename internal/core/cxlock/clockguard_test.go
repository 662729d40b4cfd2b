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
