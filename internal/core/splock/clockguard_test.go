//go:build tracecheck

package splock

import (
	"testing"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// TestUntracedPathReadsNoClock: with tracing off, a classed simple lock —
// both production algorithms, and the checked variant — must not read the
// trace clock. (StatLock keeps its own always-on statistics and reads the
// clock by design.)
func TestUntracedPathReadsNoClock(t *testing.T) {
	trace.Disable()
	c := trace.NewClass("splocktest", t.Name(), trace.KindSpin)
	before := trace.ClockReads()
	for _, p := range []Policy{TASTTAS, Queue} {
		l := NewWith(Opts{Algorithm: p, Class: c})
		l.Lock()
		l.Unlock()
		if l.TryLock() {
			l.Unlock()
		}
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
