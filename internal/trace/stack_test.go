package trace

import (
	"strings"
	"testing"
)

// withSampling runs the test at a fixed sampling divisor, restoring the
// default afterwards.
func withSampling(t *testing.T, rate int) {
	t.Helper()
	SetSampling(rate)
	t.Cleanup(func() { SetSampling(DefaultSampleRate) })
}

func TestStackInterning(t *testing.T) {
	// The same call site captured twice must intern to the same pointer.
	var got [2]*Stack
	for i := range got {
		got[i] = CaptureStack(0)
	}
	a, b := got[0], got[1]
	if a == nil || b == nil {
		t.Fatal("CaptureStack returned nil")
	}
	if a != b {
		t.Fatalf("identical stacks interned to distinct pointers: %d vs %d", a.ID(), b.ID())
	}
	if a.ID() == 0 {
		t.Fatal("interned stack has id 0 (reserved for no-stack)")
	}
	if !strings.Contains(a.String(), "TestStackInterning") ||
		!strings.Contains(a.String(), "stack_test.go") {
		t.Fatalf("String() does not cite the capture site:\n%s", a)
	}
	// In-package, every machlock frame is "internal", so Leaf falls through
	// to the non-machlock caller (the testing harness).
	if leaf := a.Leaf(); !strings.Contains(leaf, "testing.") {
		t.Fatalf("Leaf() = %q, want a testing-package frame", leaf)
	}

	var nilStack *Stack
	if nilStack.ID() != 0 || nilStack.PCs() != nil || nilStack.Frames() != nil {
		t.Fatal("nil stack accessors not inert")
	}
	if nilStack.Leaf() != "<no stack>" || nilStack.String() != "<no stack>" {
		t.Fatal("nil stack strings wrong")
	}
}

func TestSamplingRateGatesCapture(t *testing.T) {
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	c.reset() // the registry survives in-process reruns

	// Rate 0 samples nothing, but counts stay exact and waits stay timed.
	withSampling(t, 0)
	for i := 0; i < 3; i++ {
		if c.Acquire() {
			t.Fatalf("acquisition %d sampled with sampling disabled", i)
		}
	}
	c.Waited(0, 100)
	if got := c.Sites(SiteWaits); len(got) != 0 {
		t.Fatalf("Waited recorded %d sites with sampling disabled", len(got))
	}
	if p := c.Snapshot(); p.Acquisitions != 3 || p.Contended != 1 || p.MaxWaitNs != 100 {
		t.Fatalf("rate 0 lost counts or the wait: %+v", p)
	}

	// Rate 1 fires on every event.
	SetSampling(1)
	for i := 0; i < 3; i++ {
		if !c.Acquire() {
			t.Fatalf("acquisition %d not sampled at rate 1", i)
		}
	}

	// Tracing off wins over any rate.
	Disable()
	c.Waited(0, 100)
	if got := c.Sites(SiteWaits); len(got) != 0 {
		t.Fatalf("Waited recorded %d sites with tracing disabled", len(got))
	}
	Enable()
}

func TestHoldWaitBlameProfiles(t *testing.T) {
	Enable()
	defer Disable()
	withSampling(t, 1)
	c := testClass(t, KindComplex)

	h := c.BeginHold(0, Now(), 7)
	if h.TID != 7 {
		t.Fatalf("HoldInfo.TID = %d, want 7", h.TID)
	}
	c.EndHold(h, 1000)
	c.BlameWait(h, 400)   // attributed to the holder's stack
	c.BlameWait(nil, 250) // unsampled holder: unattributed bucket
	c.Waited(0, 300)

	holds := c.Sites(SiteHolds)
	if len(holds) != 1 || holds[0].Count != 1 || holds[0].Ns != 1000 {
		t.Fatalf("hold sites wrong: %+v", holds)
	}
	// Leaf() skips trace-internal frames, which in-package includes this
	// test itself — search the full symbolized stack instead.
	if !strings.Contains(holds[0].Stack.String(), "TestHoldWaitBlameProfiles") {
		t.Fatalf("hold site stack does not name the holder:\n%s", holds[0].Stack)
	}

	var attributed, unattributed bool
	for _, s := range c.Sites(SiteBlame) {
		if s.Stack == nil {
			unattributed = s.Ns == 250
		} else if s.Stack == h.Stack {
			attributed = s.Ns == 400
		}
	}
	if !attributed || !unattributed {
		t.Fatalf("blame sites wrong (attributed=%v unattributed=%v): %+v",
			attributed, unattributed, c.Sites(SiteBlame))
	}

	waits := c.Sites(SiteWaits)
	if len(waits) != 1 || waits[0].Ns != 300 {
		t.Fatalf("wait sites wrong: %+v", waits)
	}

	// Nil receivers and nil HoldInfo are inert on every path.
	var nilClass *Class
	nilClass.EndHold(h, 1)
	nilClass.BlameWait(h, 1)
	nilClass.Waited(0, 1)
	if nilClass.Sites(SiteHolds) != nil {
		t.Fatal("nil class has sites")
	}
	c.EndHold(nil, 99999) // unsampled hold: no-op
	if got := c.Sites(SiteHolds); len(got) != 1 || got[0].Ns != 1000 {
		t.Fatalf("nil EndHold mutated the profile: %+v", got)
	}
}

func TestSiteKindStrings(t *testing.T) {
	if SiteWaits.String() != "waits" || SiteHolds.String() != "holds" || SiteBlame.String() != "blame" {
		t.Fatal("SiteKind strings wrong")
	}
}
