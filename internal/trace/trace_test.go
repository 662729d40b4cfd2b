package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testClass makes a uniquely named class per test to keep the global
// registry from cross-contaminating assertions.
func testClass(t *testing.T, kind Kind) *Class {
	t.Helper()
	return NewClass("tracetest", t.Name(), kind)
}

func TestRegistryDedupAndLookup(t *testing.T) {
	a := NewClass("p", "same", KindSpin)
	b := NewClass("p", "same", KindSpin)
	if a != b {
		t.Fatal("duplicate registration returned a new class")
	}
	if Lookup("p", "same") != a {
		t.Fatal("Lookup missed registered class")
	}
	if Lookup("p", "missing") != nil {
		t.Fatal("Lookup invented a class")
	}
	if c := NewClass("q", "same", KindComplex); c == a {
		t.Fatal("same name in another pkg must be a distinct class")
	}
	found := false
	for _, c := range Classes() {
		if c == a {
			found = true
		}
	}
	if !found {
		t.Fatal("Classes() omitted a registered class")
	}
}

func TestDisabledIsInert(t *testing.T) {
	Disable()
	c := testClass(t, KindSpin)
	if c.On() {
		t.Fatal("On() true while disabled")
	}
	c.Acquired(true, 100)
	c.Released(50)
	p := c.Snapshot()
	if p.Acquisitions != 0 || p.Contended != 0 || p.Releases != 0 {
		t.Fatalf("disabled tracing still counted: %+v", p)
	}
	var nilClass *Class
	if nilClass.On() {
		t.Fatal("nil class On() true")
	}
	// All recording methods must be nil-receiver safe.
	Enable()
	defer Disable()
	nilClass.Acquired(false, 0)
	nilClass.Released(1)
	nilClass.Waiting()
	nilClass.DoneWaiting(1)
	nilClass.Upgraded(true)
	nilClass.Downgraded()
	nilClass.RefClone(1)
	nilClass.RefRelease(0)
	nilClass.Deactivated()
}

func TestProfileAccounting(t *testing.T) {
	ResetEvents()
	Enable()
	defer Disable()
	c := testClass(t, KindComplex)
	c.Acquired(false, 0)
	c.Acquired(true, 1000)
	c.Released(500)
	c.Upgraded(true)
	c.Upgraded(false)
	c.Downgraded()
	c.RefClone(2)
	c.RefRelease(1)
	c.Deactivated()
	p := c.Snapshot()
	if p.Acquisitions != 2 || p.Contended != 1 || p.Releases != 1 {
		t.Fatalf("counts wrong: %+v", p)
	}
	if p.ContentionRate != 0.5 {
		t.Fatalf("contention rate = %v, want 0.5", p.ContentionRate)
	}
	if p.MaxWaitNs != 1000 || p.MeanHoldNs != 500 {
		t.Fatalf("histograms wrong: wait max %d hold mean %v", p.MaxWaitNs, p.MeanHoldNs)
	}
	if p.Upgrades != 1 || p.FailedUpgrades != 1 || p.Downgrades != 1 {
		t.Fatalf("upgrade accounting wrong: %+v", p)
	}
	if p.RefClones != 1 || p.RefReleases != 1 || p.Deactivates != 1 {
		t.Fatalf("ref accounting wrong: %+v", p)
	}

	c.reset()
	if p := c.Snapshot(); p.Acquisitions != 0 || p.MaxWaitNs != 0 {
		t.Fatalf("reset left residue: %+v", p)
	}
}

func TestFlightRecorderRecordsAndOrders(t *testing.T) {
	ResetEvents()
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	const n = 100
	for i := 0; i < n; i++ {
		c.Acquired(false, 0)
		c.Released(int64(i))
	}
	evs := Events(0)
	var mine []Event
	for _, e := range evs {
		if e.Class == c {
			mine = append(mine, e)
		}
	}
	if len(mine) != 2*n {
		t.Fatalf("recorded %d events, want %d", len(mine), 2*n)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeNs < evs[i-1].TimeNs {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// Tail limiting.
	if got := Events(10); len(got) != 10 {
		t.Fatalf("Events(10) returned %d", len(got))
	}
	if !strings.Contains(mine[0].String(), t.Name()) {
		t.Fatalf("event string %q does not name the class", mine[0].String())
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	SetRingCapacity(8)
	defer SetRingCapacity(DefaultRingCapacity)
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	for i := 0; i < 10_000; i++ {
		c.Acquired(false, 0)
	}
	evs := Events(0)
	if len(evs) == 0 || len(evs) > 8*nshards {
		t.Fatalf("wrapped ring holds %d events, want 1..%d", len(evs), 8*nshards)
	}
}

// TestFlightRecorderConcurrentWraparound hammers a tiny ring from many
// writers while readers snapshot it, so every slot wraps hundreds of times
// mid-read. The seq-validated slots must never yield a torn event: each
// decoded event carries a registered class, a known op, a tid one of the
// writers stamped, and a plausible timestamp.
func TestFlightRecorderConcurrentWraparound(t *testing.T) {
	SetRingCapacity(8)
	defer SetRingCapacity(DefaultRingCapacity)
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	start := Now()

	const writers = 8
	const perWriter = 4000
	var wgWriters, wgReaders sync.WaitGroup
	stop := make(chan struct{})
	var torn atomic.Int64
	// Concurrent readers validate whatever they catch mid-wrap.
	for r := 0; r < 2; r++ {
		wgReaders.Add(1)
		go func() {
			defer wgReaders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range Events(0) {
					if e.Class != c || e.Op != OpRelease || e.TID > writers ||
						e.TimeNs < start {
						torn.Add(1)
					}
				}
			}
		}()
	}
	for w := 1; w <= writers; w++ {
		wgWriters.Add(1)
		go func(tid uint32) {
			defer wgWriters.Done()
			for i := 0; i < perWriter; i++ {
				c.ReleasedBy(tid, int64(i))
			}
		}(uint32(w))
	}
	wgWriters.Wait()
	close(stop)
	wgReaders.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn events surfaced from the wrapped ring", torn.Load())
	}
	evs := Events(0)
	if len(evs) == 0 || len(evs) > 8*nshards {
		t.Fatalf("wrapped ring holds %d events, want 1..%d", len(evs), 8*nshards)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeNs < evs[i-1].TimeNs {
			t.Fatalf("events out of order at %d", i)
		}
	}
}

func TestConcurrentRecordingIsSafe(t *testing.T) {
	ResetEvents()
	Enable()
	defer Disable()
	c := testClass(t, KindObject)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Acquired(i%7 == 0, int64(i))
				c.RefClone(int64(i))
				c.RefRelease(int64(i))
				c.Released(int64(i))
			}
		}()
	}
	// Concurrent dumps must not race with recording.
	for i := 0; i < 50; i++ {
		Events(100)
	}
	wg.Wait()
	p := c.Snapshot()
	if p.Acquisitions != 8*2000 || p.Releases != 8*2000 {
		t.Fatalf("lost counts under concurrency: %+v", p)
	}
	if p.RefClones != 8*2000 || p.RefReleases != 8*2000 {
		t.Fatalf("lost ref counts: %+v", p)
	}
}

func TestExporters(t *testing.T) {
	Enable()
	defer Disable()
	c := testClass(t, KindSpin)
	c.Acquired(true, 1000)
	c.Released(100)
	ps := []Profile{c.Snapshot()}

	var text strings.Builder
	if err := WriteText(&text, ps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), t.Name()) || !strings.Contains(text.String(), "cont%") {
		t.Fatalf("text export missing content:\n%s", text.String())
	}

	var csv strings.Builder
	if err := WriteCSV(&csv, ps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "pkg,name,kind") {
		t.Fatalf("csv export wrong:\n%s", csv.String())
	}
	if !strings.Contains(lines[1], "tracetest,"+t.Name()+",spin,1,1,1.000000") {
		t.Fatalf("csv row wrong: %s", lines[1])
	}

	var vars strings.Builder
	if err := WriteVars(&vars, ps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vars.String(), `"tracetest/`+t.Name()+`"`) ||
		!strings.Contains(vars.String(), `"Acquisitions": 1`) {
		t.Fatalf("vars export wrong:\n%s", vars.String())
	}

	var evs strings.Builder
	if err := WriteEvents(&evs, Events(5)); err != nil {
		t.Fatal(err)
	}
}

func TestRankedOrdersByContention(t *testing.T) {
	Enable()
	defer Disable()
	hot := NewClass("tracetest", t.Name()+"-hot", KindSpin)
	warm := NewClass("tracetest", t.Name()+"-warm", KindSpin)
	cold := NewClass("tracetest", t.Name()+"-cold", KindSpin)
	_ = cold // registered but idle: must not appear
	for i := 0; i < 10; i++ {
		hot.Acquired(true, 10)
	}
	warm.Acquired(true, 10)
	r := Ranked()
	hotAt, warmAt, coldSeen := -1, -1, false
	for i, p := range r {
		switch p.Name {
		case t.Name() + "-hot":
			hotAt = i
		case t.Name() + "-warm":
			warmAt = i
		case t.Name() + "-cold":
			coldSeen = true
		}
	}
	if hotAt == -1 || warmAt == -1 || hotAt > warmAt {
		t.Fatalf("ranking wrong: hot@%d warm@%d", hotAt, warmAt)
	}
	if coldSeen {
		t.Fatal("idle class appeared in ranked report")
	}
}

func TestKindAndOpStrings(t *testing.T) {
	if KindSpin.String() != "spin" || KindComplex.String() != "complex" ||
		KindRef.String() != "ref" || KindObject.String() != "object" ||
		Kind(99).String() != "kind(99)" {
		t.Fatal("Kind strings wrong")
	}
	if OpAcquire.String() != "acquire" || OpDeactivate.String() != "deactivate" ||
		Op(99).String() != "op(99)" {
		t.Fatal("Op strings wrong")
	}
}
