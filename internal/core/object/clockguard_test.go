//go:build tracecheck

package object

import (
	"testing"

	"machlock/internal/trace"
)

// TestUntracedRefsReadNoClock: with tracing off, a classed object's lock,
// reference and deactivation traffic must skip the trace clock.
func TestUntracedRefsReadNoClock(t *testing.T) {
	trace.Disable()
	var o Object
	o.Init(t.Name())
	o.SetClass(trace.NewClass("objecttest", t.Name(), trace.KindObject))
	before := trace.ClockReads()
	o.TakeRef()
	o.Lock()
	o.TakeRef()
	o.Deactivate()
	o.Unlock()
	o.Release(nil)
	o.Release(nil)
	o.Release(nil)
	if n := trace.ClockReads() - before; n != 0 {
		t.Fatalf("an untraced object read the trace clock %d times", n)
	}
}
