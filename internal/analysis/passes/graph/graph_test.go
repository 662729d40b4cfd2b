package graph_test

import (
	"testing"

	"machlock/internal/analysis/framework/analysistest"
	"machlock/internal/analysis/passes/graph"
	"machlock/internal/lockgraph"
)

// TestGraph checks the edges the pass proves over its fixture: a
// cross-class nesting gives an edge, a same-class nesting none (the
// dynamic collector's rule in internal/trace/lockgraph.go), an edge
// reached only through TryLock is try-only, and one also reached through
// a plain Lock is not.
func TestGraph(t *testing.T) {
	graph.Reset()
	defer graph.Reset()
	analysistest.Run(t, analysistest.TestData(t), graph.Analyzer, "graph")
	g := graph.Snapshot("graph_test")

	got := map[[2]string]lockgraph.Edge{}
	for _, e := range g.Edges {
		got[[2]string{e.From, e.To}] = e
	}
	want := []struct {
		from, to string
		tryOnly  bool
		sites    int
	}{
		{"graph.a.mu", "graph.b.mu", false, 1}, // cross
		{"graph.b.mu", "graph.c.mu", true, 1},  // tryOnly
		{"graph.c.mu", "graph.d.mu", false, 2}, // mixedTry + mixedLock
	}
	for _, w := range want {
		e, ok := got[[2]string{w.from, w.to}]
		if !ok {
			t.Errorf("missing edge %s -> %s", w.from, w.to)
			continue
		}
		if e.TryOnly != w.tryOnly {
			t.Errorf("edge %s -> %s: TryOnly = %v, want %v", w.from, w.to, e.TryOnly, w.tryOnly)
		}
		if e.MayBlock {
			t.Errorf("edge %s -> %s: MayBlock between simple locks", w.from, w.to)
		}
		if len(e.Sites) != w.sites {
			t.Errorf("edge %s -> %s: sites %v, want %d", w.from, w.to, e.Sites, w.sites)
		}
	}
	if len(g.Edges) != len(want) {
		t.Errorf("graph has %d edges, want %d (same-class nesting must add none): %+v",
			len(g.Edges), len(want), g.Edges)
	}
}
