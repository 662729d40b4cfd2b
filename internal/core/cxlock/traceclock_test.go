package cxlock

import (
	"testing"

	"machlock/internal/core/splock"
	"machlock/internal/machsim/simhook"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// sampleEvery pins the trace layer's sampling to 1 for the test, so
// every acquisition is timed and recorded in the ring, and restores the
// default afterwards. Tests that assert every ring event or every hold
// sample need it.
func sampleEvery(t *testing.T) {
	t.Helper()
	trace.SetSampling(1)
	t.Cleanup(func() { trace.SetSampling(trace.DefaultSampleRate) })
}

// classEvents returns the flight-recorder events of c, in trace-clock
// order.
func classEvents(c *trace.Class) []trace.Event {
	var out []trace.Event
	for _, e := range trace.Events(0) {
		if e.Class == c {
			out = append(out, e)
		}
	}
	return out
}

// checkOneStamp asserts that a single acquire/release pair of c shares
// the hold stamp: the release's TimeNs - Arg (hold time) is exactly the
// acquire's TimeNs. WriteTimeline draws hold slices on that assumption.
func checkOneStamp(t *testing.T, what string, c *trace.Class) {
	t.Helper()
	var acq, rel *trace.Event
	for _, e := range classEvents(c) {
		switch e.Op {
		case trace.OpAcquire:
			acq = &e
		case trace.OpRelease:
			rel = &e
		}
	}
	if acq == nil || rel == nil {
		t.Fatalf("%s: acquire/release events missing", what)
	}
	if rel.TimeNs-rel.Arg != acq.TimeNs {
		t.Fatalf("%s: release TimeNs-Arg = %d, acquire TimeNs = %d (off by %d ns)",
			what, rel.TimeNs-rel.Arg, acq.TimeNs, rel.TimeNs-rel.Arg-acq.TimeNs)
	}
}

func TestTracedHoldSharesOneStamp(t *testing.T) {
	sampleEvery(t)
	trace.ResetEvents()
	trace.Enable()
	defer trace.Disable()

	sc := trace.NewClass("cxlocktest", t.Name()+"-sp", trace.KindSpin)
	sp := splock.NewWith(splock.Opts{Class: sc})
	sp.Lock()
	sp.Unlock()
	checkOneStamp(t, "splock", sc)

	c := trace.NewClass("cxlocktest", t.Name()+"-cx", trace.KindComplex)
	l := NewWith(Options{Name: t.Name(), Class: c})
	th := sched.New("writer")
	l.Write(th)
	l.Done(th)
	checkOneStamp(t, "cxlock write", c)
}

// virtualClock is a do-nothing machsim harness whose only effect is a
// virtual clock far below host time, as machsim's own is.
type virtualClock struct{ ns int64 }

func (*virtualClock) Yield(simhook.Point, any)          {}
func (*virtualClock) Note(simhook.Point, any, int64)    {}
func (*virtualClock) ForceFail(simhook.Point, any) bool { return false }
func (*virtualClock) Block(any) bool                    { return false }
func (*virtualClock) Unblock(any) bool                  { return false }
func (*virtualClock) Index(any) (int, bool)             { return 0, false }
func (v *virtualClock) NowNs() int64                    { v.ns += 10; return v.ns }

// TestRingStaysOnTraceClockUnderHarness: with a virtual clock installed,
// cxlock's protocol clock is virtual but its trace stamps are not — the
// cxlock and splock events a single thread records interleave on the
// trace clock in program order, inside the host-time window around them.
func TestRingStaysOnTraceClockUnderHarness(t *testing.T) {
	simhook.Install(&virtualClock{})
	defer simhook.Uninstall()
	sampleEvery(t)
	trace.ResetEvents()
	trace.Enable()
	defer trace.Disable()

	cc := trace.NewClass("cxlocktest", t.Name()+"-cx", trace.KindComplex)
	sc := trace.NewClass("cxlocktest", t.Name()+"-sp", trace.KindSpin)
	l := NewWith(Options{Name: t.Name(), Class: cc})
	sp := splock.NewWith(splock.Opts{Class: sc})
	th := sched.New("t")

	lo := trace.Now()
	sp.Lock()
	sp.Unlock()
	l.Write(th)
	l.Done(th)
	sp.Lock()
	sp.Unlock()
	l.Read(th)
	l.Done(th)
	hi := trace.Now()

	want := []struct {
		c  *trace.Class
		op trace.Op
	}{
		{sc, trace.OpAcquire}, {sc, trace.OpRelease},
		{cc, trace.OpAcquire}, {cc, trace.OpRelease},
		{sc, trace.OpAcquire}, {sc, trace.OpRelease},
		{cc, trace.OpAcquire}, {cc, trace.OpRelease},
	}
	var got []trace.Event
	for _, e := range trace.Events(0) {
		if e.Class == cc || e.Class == sc {
			got = append(got, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i, e := range got {
		if e.Class != want[i].c || e.Op != want[i].op {
			t.Fatalf("event %d in trace-clock order is %v, want %s %v: %v",
				i, e, want[i].c.Name(), want[i].op, got)
		}
		if e.TimeNs < lo || e.TimeNs > hi {
			t.Fatalf("event %v stamped %d, outside the trace-clock window [%d, %d]", e, e.TimeNs, lo, hi)
		}
	}
}
