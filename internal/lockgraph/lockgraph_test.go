package lockgraph

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func validStatic() *Graph {
	return &Graph{
		Schema:    Schema,
		Source:    SourceStatic,
		Generator: "test",
		Nodes: []Node{
			{Class: "vm.map", Kind: "complex", Observable: true},
			{Class: "vm.object", Kind: "spin", Observable: true},
			{Class: "pmap.Pmap.lock", Kind: "unknown", Observable: false},
		},
		Edges: []Edge{
			{From: "vm.map", To: "vm.object", Sites: []string{"vm/map.go:100"}, MayBlock: true},
			{From: "vm.map", To: "pmap.Pmap.lock", Sites: []string{"vm/fault.go:40"}},
		},
	}
}

func TestValidateAndRoundTrip(t *testing.T) {
	g := validStatic()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.Source != SourceStatic || len(got.Edges) != 2 || len(got.Nodes) != 3 {
		t.Fatalf("round trip mangled graph: %+v", got)
	}
	if got.Edges[0].From != "vm.map" || !got.Edges[0].MayBlock && !got.Edges[1].MayBlock {
		t.Fatalf("edge flags lost: %+v", got.Edges)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	if err := WriteFile(path, validStatic()); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("got %d edges", len(g.Edges))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Graph)
		want string
	}{
		{"schema", func(g *Graph) { g.Schema = "v0" }, "schema"},
		{"source", func(g *Graph) { g.Source = "both" }, "source"},
		{"dup node", func(g *Graph) { g.Nodes = append(g.Nodes, Node{Class: "vm.map"}) }, "duplicate node"},
		{"empty node", func(g *Graph) { g.Nodes = append(g.Nodes, Node{}) }, "empty class"},
		{"undeclared from", func(g *Graph) { g.Edges = append(g.Edges, Edge{From: "nope", To: "vm.map"}) }, "undeclared"},
		{"undeclared to", func(g *Graph) { g.Edges = append(g.Edges, Edge{From: "vm.map", To: "nope"}) }, "undeclared"},
		{"dup edge", func(g *Graph) { g.Edges = append(g.Edges, g.Edges[0]) }, "duplicate edge"},
		{"empty endpoint", func(g *Graph) { g.Edges = append(g.Edges, Edge{From: "vm.map"}) }, "empty endpoint"},
	}
	for _, tc := range cases {
		g := validStatic()
		tc.mut(g)
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestMerge(t *testing.T) {
	a := &Graph{
		Schema: Schema, Source: SourceDynamic, Generator: "run-a",
		Nodes: []Node{{Class: "vm.map", Observable: true}, {Class: "vm.object", Observable: true}},
		Edges: []Edge{{From: "vm.map", To: "vm.object", Count: 3, TryOnly: true}},
	}
	b := &Graph{
		Schema: Schema, Source: SourceDynamic, Generator: "run-b",
		Nodes: []Node{{Class: "vm.object", Observable: true}, {Class: "ipc.port", Kind: "object", Observable: true}},
		Edges: []Edge{
			{From: "vm.map", To: "vm.object", Count: 4}, // non-try proof of the same edge
			{From: "vm.object", To: "ipc.port", Count: 1},
		},
		UnmappedClasses: []string{"montest.A"},
	}
	a.Merge(b)
	if len(a.Nodes) != 3 || len(a.Edges) != 2 {
		t.Fatalf("merge: %d nodes %d edges", len(a.Nodes), len(a.Edges))
	}
	var mapObj *Edge
	for i := range a.Edges {
		if a.Edges[i].To == "vm.object" {
			mapObj = &a.Edges[i]
		}
	}
	if mapObj == nil || mapObj.Count != 7 {
		t.Fatalf("counts not summed: %+v", a.Edges)
	}
	if mapObj.TryOnly {
		t.Fatal("edge proven by a non-try site must not stay try-only")
	}
	if len(a.UnmappedClasses) != 1 || a.UnmappedClasses[0] != "montest.A" {
		t.Fatalf("unmapped classes not merged: %v", a.UnmappedClasses)
	}
}

// TestMergeEdgeCases covers the merge algebra edge by edge: the count sum
// saturates instead of wrapping, sites union without duplicates, MayBlock
// ORs (one sleeping proof taints the edge) while TryOnly/Upgrade AND (one
// unconditional proof cleanses it), and empty graphs are identities on both
// sides.
func TestMergeEdgeCases(t *testing.T) {
	mkGraph := func(edges ...Edge) *Graph {
		g := &Graph{Schema: Schema, Source: SourceDynamic, Generator: "t",
			Nodes: []Node{{Class: "a", Observable: true}, {Class: "b", Observable: true}}}
		g.Edges = append(g.Edges, edges...)
		return g
	}
	ab := func(e Edge) Edge { e.From, e.To = "a", "b"; return e }

	cases := []struct {
		name string
		dst  Edge
		src  Edge
		want Edge
	}{
		{
			name: "counts add",
			dst:  ab(Edge{Count: 3}),
			src:  ab(Edge{Count: 4}),
			want: ab(Edge{Count: 7}),
		},
		{
			name: "count overflow saturates",
			dst:  ab(Edge{Count: math.MaxInt64 - 1}),
			src:  ab(Edge{Count: 2}),
			want: ab(Edge{Count: math.MaxInt64}),
		},
		{
			name: "saturated stays saturated",
			dst:  ab(Edge{Count: math.MaxInt64}),
			src:  ab(Edge{Count: math.MaxInt64}),
			want: ab(Edge{Count: math.MaxInt64}),
		},
		{
			name: "sites union dedups",
			dst:  ab(Edge{Sites: []string{"x.go:1", "y.go:2"}}),
			src:  ab(Edge{Sites: []string{"y.go:2", "z.go:3"}}),
			want: ab(Edge{Sites: []string{"x.go:1", "y.go:2", "z.go:3"}}),
		},
		{
			name: "may-block ORs",
			dst:  ab(Edge{}),
			src:  ab(Edge{MayBlock: true}),
			want: ab(Edge{MayBlock: true}),
		},
		{
			name: "may-block sticks",
			dst:  ab(Edge{MayBlock: true}),
			src:  ab(Edge{}),
			want: ab(Edge{MayBlock: true}),
		},
		{
			name: "try-only ANDs away",
			dst:  ab(Edge{TryOnly: true}),
			src:  ab(Edge{}),
			want: ab(Edge{}),
		},
		{
			name: "try-only kept when both",
			dst:  ab(Edge{TryOnly: true}),
			src:  ab(Edge{TryOnly: true}),
			want: ab(Edge{TryOnly: true}),
		},
		{
			name: "upgrade ANDs away",
			dst:  ab(Edge{Upgrade: true}),
			src:  ab(Edge{Upgrade: false}),
			want: ab(Edge{}),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mkGraph(tc.dst)
			g.Merge(mkGraph(tc.src))
			if len(g.Edges) != 1 {
				t.Fatalf("edge count = %d, want 1", len(g.Edges))
			}
			got := g.Edges[0]
			sort.Strings(got.Sites)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("merged edge = %+v, want %+v", got, tc.want)
			}
		})
	}

	t.Run("empty right identity", func(t *testing.T) {
		g := mkGraph(ab(Edge{Count: 5, Sites: []string{"x.go:1"}, MayBlock: true}))
		g.Merge(&Graph{Schema: Schema, Source: SourceDynamic})
		if len(g.Nodes) != 2 || len(g.Edges) != 1 || g.Edges[0].Count != 5 {
			t.Fatalf("merge with empty graph changed contents: %+v", g)
		}
	})
	t.Run("empty left identity", func(t *testing.T) {
		g := &Graph{Schema: Schema, Source: SourceDynamic}
		src := mkGraph(ab(Edge{Count: 5, TryOnly: true}))
		g.Merge(src)
		if len(g.Nodes) != 2 || len(g.Edges) != 1 {
			t.Fatalf("merge into empty graph lost contents: %+v", g)
		}
		if g.Edges[0].Count != 5 || !g.Edges[0].TryOnly {
			t.Fatalf("edge copied wrong: %+v", g.Edges[0])
		}
		if err := g.Validate(); err == nil {
			// Source/Generator were empty on the left; the merged graph is
			// structurally fine but still fails source validation, which is
			// the caller's to fill in. Just make sure nodes arrived.
			_ = err
		}
	})
	t.Run("disjoint edges both kept", func(t *testing.T) {
		g := mkGraph(ab(Edge{Count: 1}))
		other := mkGraph(Edge{From: "b", To: "a", Count: 2})
		g.Merge(other)
		if len(g.Edges) != 2 {
			t.Fatalf("disjoint edges merged: %+v", g.Edges)
		}
	})
}

func TestCanonicalStatic(t *testing.T) {
	cases := []struct {
		key, want string
		obs       bool
	}{
		{"vm.Map.lock", "vm.map", true},
		{"vm.Object.lock", "vm.object", true},
		{"ipc.Port", "ipc.port", true},
		{"kern.ProcessorSet.members", "kern.pset.members", true},
		{"kern.Host.assignLock", "kern.host.assign", true},
		{"machd.slot.chaosLock", "machd.chaos", true},
		{"zalloc.Zone.lock", "zalloc.zone", true},
		{"pmap.Pmap.lock", "pmap.Pmap.lock", false}, // untraced, kept
		{"local:l@123", "", false},                  // function-local, dropped
		{"local:l@123.interlock", "", false},
	}
	for _, tc := range cases {
		got, obs := CanonicalStatic(tc.key)
		if got != tc.want || obs != tc.obs {
			t.Errorf("CanonicalStatic(%q) = %q,%v; want %q,%v", tc.key, got, obs, tc.want, tc.obs)
		}
	}
}

func TestCanonicalDynamic(t *testing.T) {
	cases := []struct {
		name, want string
		ok         bool
	}{
		{"vm.map", "vm.map", true},
		{"zone.kern.task", "zalloc.zone", true},
		{"zone.vm.page", "zalloc.zone", true},
		{"splock.hierarchy", "", true}, // infrastructure, silently dropped
		{"montest.A", "", false},       // test harness, unmapped
	}
	for _, tc := range cases {
		got, ok := CanonicalDynamic(tc.name)
		if got != tc.want || ok != tc.ok {
			t.Errorf("CanonicalDynamic(%q) = %q,%v; want %q,%v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestDiff(t *testing.T) {
	static := &Graph{
		Schema: Schema, Source: SourceStatic, Generator: "machvet -graph",
		Nodes: []Node{
			{Class: "vm.map", Observable: true},
			{Class: "vm.object", Observable: true},
			{Class: "ipc.port", Observable: true},
			{Class: "pmap.Pmap.lock", Observable: false},
		},
		Edges: []Edge{
			{From: "vm.map", To: "vm.object", Sites: []string{"a.go:1"}},                  // exercised
			{From: "vm.map", To: "ipc.port", Sites: []string{"b.go:2"}},                   // coverage gap
			{From: "vm.object", To: "ipc.port", Sites: []string{"c.go:3"}, TryOnly: true}, // try-only, exempt
			{From: "vm.map", To: "pmap.Pmap.lock", Sites: []string{"d.go:4"}},             // unobservable
		},
	}
	dynamic := &Graph{
		Schema: Schema, Source: SourceDynamic, Generator: "machd -smoke",
		Nodes: []Node{
			{Class: "vm.map", Observable: true},
			{Class: "vm.object", Observable: true},
			{Class: "ipc.space", Observable: true},
		},
		Edges: []Edge{
			{From: "vm.map", To: "vm.object", Count: 9},
			{From: "ipc.space", To: "vm.map", Count: 2}, // soundness hole
		},
	}
	res, err := Diff(static, dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || res.Matched[0].Count != 9 || res.Matched[0].Sites[0] != "a.go:1" {
		t.Fatalf("matched: %+v", res.Matched)
	}
	if len(res.StaticOnly) != 1 || res.StaticOnly[0].To != "ipc.port" {
		t.Fatalf("static-only: %+v", res.StaticOnly)
	}
	if len(res.DynamicOnly) != 1 || res.DynamicOnly[0].From != "ipc.space" {
		t.Fatalf("dynamic-only: %+v", res.DynamicOnly)
	}
	if res.StaticUnobservable != 1 || res.TryOnlyUnmatched != 1 {
		t.Fatalf("exclusions: %+v", res)
	}
	if res.Sound() {
		t.Fatal("graph with a dynamic-only edge reported sound")
	}
	if pct := res.CoveragePct(); pct != 50 {
		t.Fatalf("coverage %v, want 50", pct)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"SOUNDNESS HOLE", "ipc.space -> vm.map", "coverage gap: vm.map -> ipc.port", "b.go:2", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDiffRejectsWrongSources(t *testing.T) {
	s, d := validStatic(), validStatic()
	if _, err := Diff(d, d); err == nil || !strings.Contains(err.Error(), "source") {
		// second arg is static too
		t.Fatalf("want source error, got %v", err)
	}
	d.Source = SourceDynamic
	if _, err := Diff(s, d); err != nil {
		t.Fatalf("valid sources rejected: %v", err)
	}
}
