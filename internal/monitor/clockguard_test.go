//go:build tracecheck

package monitor

import (
	"testing"
	"time"

	"machlock/internal/core/splock"
	"machlock/internal/trace"
)

// TestCensusReadsNoClock: the spin census observer runs on every spin
// acquisition and release, so it must never read the trace clock: an
// unclassed lock's pairs under a running monitor read none at all.
func TestCensusReadsNoClock(t *testing.T) {
	m := New(Config{Interval: time.Hour})
	startMonitor(t, m)
	var l splock.Lock
	before := trace.ClockReads()
	for i := 0; i < 64; i++ {
		l.Lock()
		l.Unlock()
	}
	if n := trace.ClockReads() - before; n != 0 {
		t.Fatalf("census-observed spin pairs read the trace clock %d times", n)
	}
	if got := m.spc.n.Load(spAcquired); got < 64 {
		t.Fatalf("census counted %d acquisitions, want at least 64", got)
	}
}
