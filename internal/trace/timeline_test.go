package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// timelineDoc mirrors the Chrome trace-event JSON envelope for assertions.
type timelineDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// stubOwner is a minimal Identifiable span owner for timeline tests.
type stubOwner uint32

func (o stubOwner) TraceID() uint32 { return uint32(o) }

func writeTimeline(t *testing.T, events []Event) timelineDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, events); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	var doc timelineDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// TestTimelineSlices drives real hold, wait, and span traffic through the
// flight recorder and asserts the export turns the duration-carrying events
// into complete slices on the right tracks.
func TestTimelineSlices(t *testing.T) {
	ResetEvents()
	Enable()
	defer Disable()
	c := testClass(t, KindComplex)
	op := NewOp("tracetest", t.Name()+"-op")
	tid := RegisterThread(t.Name() + "-thread")
	owner := stubOwner(tid)

	c.AcquiredBy(tid, false, 0)
	c.ReleasedBy(tid, 5_000) // 5µs hold -> one "hold" slice
	c.WaitingBy(tid)
	c.DoneWaitingBy(tid, 3_000) // 3µs wait -> one "wait" slice
	BeginSpan(owner, op).End()  // -> one "op" slice

	doc := writeTimeline(t, Events(0))
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var haveProcName, haveThreadName bool
	var hold, wait, span int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			haveProcName = e.Args["name"] == "machlock"
		case e.Ph == "M" && e.Name == "thread_name":
			if e.Args["name"] == t.Name()+"-thread" && e.Tid == int(tid) {
				haveThreadName = true
			}
		case e.Ph == "X":
			// ts may be negative here: the synthetic hold "began" before
			// the first retained event. Durations must never be.
			if e.Dur < 0 {
				t.Fatalf("slice with negative dur: %+v", e)
			}
			switch e.Cat {
			case "hold":
				if e.Tid == int(tid) && e.Dur == 5 { // 5000ns = 5µs
					hold++
				}
			case "wait":
				if e.Tid == int(tid) && e.Dur == 3 {
					wait++
				}
			case "op":
				if e.Tid == int(tid) && e.Name == "tracetest/"+t.Name()+"-op" {
					span++
				}
			}
		}
	}
	if !haveProcName || !haveThreadName {
		t.Fatalf("metadata missing: process=%v thread=%v", haveProcName, haveThreadName)
	}
	if hold != 1 || wait != 1 || span != 1 {
		t.Fatalf("slices hold=%d wait=%d span=%d, want 1 each", hold, wait, span)
	}
}

// TestTimelineInstants: events without a duration (acquire markers,
// ref-count traffic) must come through as instants, not slices.
func TestTimelineInstants(t *testing.T) {
	withSampling(t, 1)
	ResetEvents()
	Enable()
	defer Disable()
	c := testClass(t, KindRef)
	c.RefClone(2)

	doc := writeTimeline(t, Events(0))
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Name == "ref-clone "+"tracetest/"+t.Name() {
			found = true
		}
	}
	if !found {
		t.Fatalf("ref-clone instant missing from %d events", len(doc.TraceEvents))
	}
}

// TestTimelineEmpty: an empty ring still yields a well-formed document.
func TestTimelineEmpty(t *testing.T) {
	doc := writeTimeline(t, nil)
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			t.Fatalf("non-metadata event in empty timeline: %+v", e)
		}
	}
}
