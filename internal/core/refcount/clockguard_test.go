//go:build tracecheck

package refcount

import (
	"testing"

	"machlock/internal/trace"
)

// TestRefPairsReadClockOnlyWhenSampled: a classed count's clone/release
// pair reads no clock with tracing off, and with tracing on at the
// default rate reads it only when the pair is sampled — one reading per
// recorded event, so 0, 1 or 2, and the first pair of a fresh class
// (whose lanes' first events are always sampled) exactly 2.
func TestRefPairsReadClockOnlyWhenSampled(t *testing.T) {
	trace.SetSampling(trace.DefaultSampleRate)
	for _, on := range []bool{false, true} {
		if on {
			trace.Enable()
		}
		var c Count
		var a Atomic
		c.Init(1)
		a.Init(1)
		name := t.Name()
		if on {
			name += "-on"
		}
		c.SetClass(trace.NewClass("refcounttest", name+"-count", trace.KindRef))
		a.SetClass(trace.NewClass("refcounttest", name+"-atomic", trace.KindRef))
		for _, pair := range []func(){
			func() { c.Clone(); c.Release() },
			func() { a.Clone(); a.Release() },
		} {
			runs := 4 * trace.DefaultSampleRate
			quiet := 0
			for i := 0; i < runs; i++ {
				before := trace.ClockReads()
				pair()
				n := trace.ClockReads() - before
				switch {
				case !on && n != 0:
					t.Fatalf("untraced clone/release read the trace clock %d times", n)
				case on && i == 0 && n != 2:
					t.Fatalf("the sampled first pair read the clock %d times, want 2", n)
				case n == 0:
					quiet++
				case n > 2:
					t.Fatalf("pair %d read the clock %d times, want at most 2", i, n)
				}
			}
			if quiet < runs/2 {
				t.Fatalf("only %d of %d pairs read no clock (tracing on: %v)", quiet, runs, on)
			}
		}
		trace.Disable()
	}
}
