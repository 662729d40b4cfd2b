package trace

import (
	"sync"
	"testing"

	"machlock/internal/lockgraph"
)

// graphTestSetup enables tracing plus the collector with clean edge state
// and restores everything on cleanup.
func graphTestSetup(t *testing.T) {
	t.Helper()
	wasEnabled := Enabled()
	Enable()
	ResetLockGraph()
	EnableLockGraph()
	t.Cleanup(func() {
		DisableLockGraph()
		ResetLockGraph()
		if !wasEnabled {
			Disable()
		}
	})
}

func findEdge(g *lockgraph.Graph, from, to string) *lockgraph.Edge {
	for i := range g.Edges {
		if g.Edges[i].From == from && g.Edges[i].To == to {
			return &g.Edges[i]
		}
	}
	return nil
}

func TestLockGraphRecordsNestedAcquisition(t *testing.T) {
	graphTestSetup(t)
	outer := NewClass("graphtest", "vm.map", KindComplex)  // canonical name
	inner := NewClass("graphtest", "vm.object", KindSpin)  // canonical name
	other := NewClass("graphtest", "ipc.port", KindObject) // never nested
	for i := 0; i < 3; i++ {
		outer.AcquiredAt(0, 1, false, 0)
		inner.AcquiredAt(0, 1, false, 0)
		inner.ReleasedAt(0, 1, 10)
		outer.ReleasedAt(0, 1, 20)
	}
	other.AcquiredAt(0, 1, false, 0)
	other.ReleasedAt(0, 1, 5)

	g := LockGraphSnapshot("test")
	if err := g.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	e := findEdge(g, "vm.map", "vm.object")
	if e == nil || e.Count != 3 {
		t.Fatalf("want vm.map->vm.object count 3, got %+v (edges %+v)", e, g.Edges)
	}
	if findEdge(g, "vm.object", "vm.map") != nil {
		t.Fatal("release order must not invert the edge")
	}
	if findEdge(g, "vm.map", "ipc.port") != nil || findEdge(g, "ipc.port", "vm.object") != nil {
		t.Fatalf("non-nested class grew edges: %+v", g.Edges)
	}
}

func TestLockGraphOutOfOrderReleaseAndSelfNesting(t *testing.T) {
	graphTestSetup(t)
	a := NewClass("graphtest", "ipc.space", KindComplex)
	b := NewClass("graphtest", "kern.task", KindObject)
	// Hand-over-hand: release a (earlier hold) before b.
	a.AcquiredAt(0, 0, false, 0)
	b.AcquiredAt(0, 0, false, 0)
	a.ReleasedAt(0, 0, 10)
	// Still holding b here: acquiring a again must record b->a.
	a.AcquiredAt(0, 0, false, 0)
	a.ReleasedAt(0, 0, 1)
	b.ReleasedAt(0, 0, 5)
	// Same-class nesting (two tasks locked in order) is not an edge.
	b.AcquiredAt(0, 0, false, 0)
	b.AcquiredAt(0, 0, false, 0)
	b.ReleasedAt(0, 0, 1)
	b.ReleasedAt(0, 0, 1)

	g := LockGraphSnapshot("test")
	if e := findEdge(g, "ipc.space", "kern.task"); e == nil || e.Count != 1 {
		t.Fatalf("want ipc.space->kern.task count 1: %+v", g.Edges)
	}
	if e := findEdge(g, "kern.task", "ipc.space"); e == nil || e.Count != 1 {
		t.Fatalf("hand-over-hand reacquire must record kern.task->ipc.space: %+v", g.Edges)
	}
	if findEdge(g, "kern.task", "kern.task") != nil {
		t.Fatal("same-class nesting must not produce a self-edge")
	}
}

func TestLockGraphPerGoroutineIsolation(t *testing.T) {
	graphTestSetup(t)
	a := NewClass("graphtest", "kern.thread", KindObject)
	b := NewClass("graphtest", "kern.processor", KindObject)
	// Goroutine 1 holds a while goroutine 2 independently takes b: no
	// cross-goroutine edge may appear.
	holding := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a.AcquiredAt(0, 0, false, 0)
		close(holding)
		<-done
		a.ReleasedAt(0, 0, 1)
	}()
	go func() {
		defer wg.Done()
		<-holding
		b.AcquiredAt(0, 0, false, 0)
		b.ReleasedAt(0, 0, 1)
		close(done)
	}()
	wg.Wait()
	g := LockGraphSnapshot("test")
	if findEdge(g, "kern.thread", "kern.processor") != nil {
		t.Fatalf("cross-goroutine false edge: %+v", g.Edges)
	}
}

func TestLockGraphZoneCollapseAndUnmapped(t *testing.T) {
	graphTestSetup(t)
	z1 := NewClass("graphtest", "zone.alpha", KindSpin)
	z2 := NewClass("graphtest", "zone.beta", KindSpin)
	m := NewClass("graphtest", "vm.map", KindComplex)
	stray := NewClass("graphtest", "harness.stray", KindSpin)
	m.AcquiredAt(0, 0, false, 0)
	z1.AcquiredAt(0, 0, false, 0)
	z1.ReleasedAt(0, 0, 1)
	z2.AcquiredAt(0, 0, false, 0)
	z2.ReleasedAt(0, 0, 1)
	stray.AcquiredAt(0, 0, false, 0)
	stray.ReleasedAt(0, 0, 1)
	m.ReleasedAt(0, 0, 9)

	g := LockGraphSnapshot("test")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e := findEdge(g, "vm.map", "zalloc.zone")
	if e == nil || e.Count != 2 {
		t.Fatalf("zone classes must collapse to zalloc.zone with summed count: %+v", g.Edges)
	}
	found := false
	for _, u := range g.UnmappedClasses {
		if u == "harness.stray" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unmapped class not surfaced: %v", g.UnmappedClasses)
	}
	for _, e := range g.Edges {
		if e.From == "harness.stray" || e.To == "harness.stray" {
			t.Fatalf("unmapped class leaked into edges: %+v", e)
		}
	}
}

func TestLockGraphGateOff(t *testing.T) {
	wasEnabled := Enabled()
	Enable()
	ResetLockGraph()
	t.Cleanup(func() {
		ResetLockGraph()
		if !wasEnabled {
			Disable()
		}
	})
	// Collector off: classed acquisitions must leave no edges behind.
	a := NewClass("graphtest", "vm.map.ref", KindRef)
	b := NewClass("graphtest", "kern.pset", KindObject)
	a.AcquiredAt(0, 0, false, 0)
	b.AcquiredAt(0, 0, false, 0)
	b.ReleasedAt(0, 0, 1)
	a.ReleasedAt(0, 0, 1)
	if g := LockGraphSnapshot("test"); len(g.Edges) != 0 {
		t.Fatalf("edges recorded while gate off: %+v", g.Edges)
	}
}
