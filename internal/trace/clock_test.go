package trace

import "testing"

// TestSpanEventsCarrySpanStamps: a span's begin event is stamped with the
// span's own start reading, and its end event's TimeNs - Arg (total
// latency) lands exactly on that start — the alignment WriteTimeline
// relies on when it draws the span slice.
func TestSpanEventsCarrySpanStamps(t *testing.T) {
	ResetEvents()
	Enable()
	defer Disable()
	op := opClass(t, "")
	s := BeginSpan(stubOwner(3), op)
	start := s.startNs
	s.End()
	var begin, end *Event
	for _, e := range Events(0) {
		if e.Class != op {
			continue
		}
		switch e.Op {
		case OpSpanBegin:
			begin = &e
		case OpSpanEnd:
			end = &e
		}
	}
	if begin == nil || end == nil {
		t.Fatal("span begin/end events missing from the flight recorder")
	}
	if begin.TimeNs != start {
		t.Fatalf("span-begin TimeNs %d != span start %d", begin.TimeNs, start)
	}
	if end.TimeNs-end.Arg != start {
		t.Fatalf("span-end TimeNs-Arg = %d, want the span start %d", end.TimeNs-end.Arg, start)
	}
}

func TestNowIsMonotonic(t *testing.T) {
	prev := Now()
	for i := 0; i < 1000; i++ {
		n := Now()
		if n < prev {
			t.Fatalf("trace clock went backwards: %d after %d", n, prev)
		}
		prev = n
	}
}
