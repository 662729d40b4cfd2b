// Package graph emits the static half of the machlock-lockgraph/v1
// cross-check: a whole-program graph of ordered lock-class acquisitions
// (held -> acquired) proven by the lockstate walker, interprocedurally.
//
// Per function it records three things:
//
//   - direct edges: an acquisition performed while other classes are held;
//   - a transitive acquire set: every class the function (or anything it
//     calls, including its function literals) can acquire — propagated
//     intra-package by fixpoint and cross-package through package facts;
//   - call-site edges: for each call made while holding locks, one edge
//     from each held class to each class in the callee's transitive set.
//
// Function literals are walked as their own frames (a closure body may
// run under the locks of whoever invokes it, which the dynamic collector
// observes per-goroutine), and their acquire sets fold into the enclosing
// function's summary — the sound over-approximation for closures invoked
// synchronously by callees (unlock closures, pager fetchers).
//
// The pass reports nothing; `machvet -graph` drains the process-wide
// accumulator with Snapshot after the analyzers run.
package graph

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"sync"

	"machlock/internal/analysis/framework"
	"machlock/internal/analysis/lockstate"
	"machlock/internal/lockgraph"
)

var Analyzer = &framework.Analyzer{
	Name: "graph",
	Doc: "graph accumulates the whole-program lock-class acquisition graph " +
		"(held -> acquired edges with proving sites) for machvet -graph; it " +
		"reports no diagnostics of its own.",
	Run: run,
}

// AcqFlags qualifies one class in a transitive acquire set.
type AcqFlags struct {
	// MayBlock: the acquisition can sleep (complex-lock operations).
	MayBlock bool
	// TryOnly: every path to this acquisition goes through a try/backout
	// acquire, the discipline's sanctioned out-of-order escape.
	TryOnly bool
}

// Fact is the per-package export: each declared function's transitive
// acquire set (class key -> flags), keyed by lockstate.FuncID. Only
// functions that can acquire something are listed.
type Fact map[string]map[string]AcqFlags

// collector is the process-wide edge accumulator. machvet runs all
// packages in one process, so the graph pass folds every package's edges
// here; Snapshot renders and Reset clears.
var collector struct {
	mu      sync.Mutex
	edges   map[[2]string]*edgeAgg
	classes map[string]bool
}

type edgeAgg struct {
	mayBlock bool
	tryOnly  bool
	sites    []string
}

const maxSitesPerEdge = 8

// Reset clears the accumulator (call before a -graph run).
func Reset() {
	collector.mu.Lock()
	defer collector.mu.Unlock()
	collector.edges = nil
	collector.classes = nil
}

func addEdge(from, to string, mayBlock, tryOnly bool, site string) {
	collector.mu.Lock()
	defer collector.mu.Unlock()
	if collector.edges == nil {
		collector.edges = map[[2]string]*edgeAgg{}
		collector.classes = map[string]bool{}
	}
	collector.classes[from] = true
	collector.classes[to] = true
	k := [2]string{from, to}
	e, ok := collector.edges[k]
	if !ok {
		e = &edgeAgg{tryOnly: true}
		collector.edges[k] = e
	}
	e.mayBlock = e.mayBlock || mayBlock
	e.tryOnly = e.tryOnly && tryOnly
	if len(e.sites) < maxSitesPerEdge {
		for _, s := range e.sites {
			if s == site {
				return
			}
		}
		e.sites = append(e.sites, site)
	}
}

// Snapshot renders the accumulated edges as a validated static graph,
// canonicalizing class names (lockgraph.CanonicalStatic): runtime-traced
// classes take their trace name and Observable=true; untraced classes
// keep their machvet key with Observable=false; local classes never reach
// the accumulator.
func Snapshot(generator string) *lockgraph.Graph {
	collector.mu.Lock()
	defer collector.mu.Unlock()
	g := &lockgraph.Graph{
		Schema:    lockgraph.Schema,
		Source:    lockgraph.SourceStatic,
		Generator: generator,
	}
	canon := map[string]string{}
	nodeSeen := map[string]bool{}
	for cls := range collector.classes {
		name, obs := lockgraph.CanonicalStatic(cls)
		canon[cls] = name
		if name == "" || nodeSeen[name] {
			continue
		}
		nodeSeen[name] = true
		g.Nodes = append(g.Nodes, lockgraph.Node{
			Class:      name,
			Kind:       lockgraph.KindOf(name),
			Observable: obs,
		})
	}
	merged := map[[2]string]*lockgraph.Edge{}
	for k, e := range collector.edges {
		from, to := canon[k[0]], canon[k[1]]
		if from == "" || to == "" || from == to {
			continue
		}
		mk := [2]string{from, to}
		dst, ok := merged[mk]
		if !ok {
			dst = &lockgraph.Edge{From: from, To: to, MayBlock: e.mayBlock, TryOnly: e.tryOnly}
			merged[mk] = dst
		} else {
			dst.MayBlock = dst.MayBlock || e.mayBlock
			dst.TryOnly = dst.TryOnly && e.tryOnly
		}
		for _, s := range e.sites {
			if len(dst.Sites) < maxSitesPerEdge {
				dst.Sites = append(dst.Sites, s)
			}
		}
	}
	for _, e := range merged {
		g.Edges = append(g.Edges, *e)
	}
	g.Normalize()
	return g
}

// funcRecord is the per-function walk result.
type funcRecord struct {
	fn     *types.Func
	direct map[string]AcqFlags // classes acquired in this body (and its FuncLits)
	calls  []callRecord
}

type callRecord struct {
	callee *types.Func
	held   []heldClass
	pos    token.Pos
}

type heldClass struct {
	class   string
	fromTry bool
}

func run(pass *framework.Pass) (any, error) {
	// Imported transitive acquire sets, resolvable by *types.Func.
	extern := func(fn *types.Func) (map[string]AcqFlags, bool) {
		if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return nil, false
		}
		v, ok := pass.ImportPackageFact(fn.Pkg().Path())
		if !ok {
			return nil, false
		}
		f, ok := v.(Fact)
		if !ok {
			return nil, false
		}
		acq, ok := f[lockstate.FuncID(fn)]
		return acq, ok
	}

	var records []*funcRecord
	byFunc := map[*types.Func]*funcRecord{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			rec := &funcRecord{fn: fn, direct: map[string]AcqFlags{}}
			walkBody(pass, fd.Body, rec)
			// Function literals are separate frames: direct edges use the
			// literal's own held evolution, but the acquire set folds into
			// the enclosing function's summary.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkBody(pass, fl.Body, rec)
					return false
				}
				return true
			})
			records = append(records, rec)
			byFunc[fn] = rec
		}
	}

	// Fixpoint: fold callees' transitive sets into each caller until the
	// package stabilizes. Cross-package callees come from facts (analyzed
	// first, in dependency order); same-package callees from the evolving
	// records.
	trans := map[*types.Func]map[string]AcqFlags{}
	for _, rec := range records {
		t := map[string]AcqFlags{}
		for cls, fl := range rec.direct {
			t[cls] = fl
		}
		trans[rec.fn] = t
	}
	for changed := true; changed; {
		changed = false
		for _, rec := range records {
			t := trans[rec.fn]
			for _, call := range rec.calls {
				var acq map[string]AcqFlags
				if local, ok := byFunc[call.callee]; ok {
					acq = trans[local.fn]
				} else if ext, ok := extern(call.callee); ok {
					acq = ext
				}
				for cls, fl := range acq {
					if mergeFlags(t, cls, fl) {
						changed = true
					}
				}
			}
		}
	}

	// Call-site edges: each held class at a call reaches everything the
	// callee can transitively acquire.
	for _, rec := range records {
		for _, call := range rec.calls {
			var acq map[string]AcqFlags
			if local, ok := byFunc[call.callee]; ok {
				acq = trans[local.fn]
			} else if ext, ok := extern(call.callee); ok {
				acq = ext
			}
			if len(acq) == 0 {
				continue
			}
			site := renderSite(pass, call.pos)
			for _, h := range call.held {
				for cls, fl := range acq {
					if cls == h.class {
						continue
					}
					addEdge(h.class, cls, fl.MayBlock, fl.TryOnly || h.fromTry, site)
				}
			}
		}
	}

	fact := Fact{}
	for _, rec := range records {
		if t := trans[rec.fn]; len(t) > 0 {
			fact[lockstate.FuncID(rec.fn)] = t
		}
	}
	pass.ExportPackageFact(fact)
	return nil, nil
}

// mergeFlags folds one acquired class into a set; reports whether the set
// changed (new class, newly blocking, or no longer try-only).
func mergeFlags(t map[string]AcqFlags, cls string, fl AcqFlags) bool {
	old, ok := t[cls]
	if !ok {
		t[cls] = fl
		return true
	}
	merged := AcqFlags{MayBlock: old.MayBlock || fl.MayBlock, TryOnly: old.TryOnly && fl.TryOnly}
	if merged != old {
		t[cls] = merged
		return true
	}
	return false
}

// walkBody walks one frame (function body or function literal body),
// recording direct acquisitions and calls with their held context into
// rec.
func walkBody(pass *framework.Pass, body *ast.BlockStmt, rec *funcRecord) {
	w := &lockstate.Walker{
		Info: pass.TypesInfo,
		Hooks: lockstate.Hooks{
			Acquire: func(op lockstate.Op, held []lockstate.Held) {
				cls := op.ClassKey
				if !usableClass(cls) {
					return
				}
				mergeFlags(rec.direct, cls, AcqFlags{MayBlock: op.MayBlock, TryOnly: op.FromTry})
				site := renderSite(pass, op.Call.Pos())
				for _, h := range held {
					if !usableClass(h.Op.ClassKey) || h.Op.ClassKey == cls {
						continue
					}
					addEdge(h.Op.ClassKey, cls, op.MayBlock, op.FromTry || h.Op.FromTry, site)
				}
			},
			CallHeld: func(call *ast.CallExpr, held []lockstate.Held) {
				if len(held) == 0 {
					return
				}
				callee, _ := lockstate.CalleeFunc(pass.TypesInfo, call)
				if callee == nil {
					return
				}
				var hc []heldClass
				for _, h := range held {
					if usableClass(h.Op.ClassKey) {
						hc = append(hc, heldClass{class: h.Op.ClassKey, fromTry: h.Op.FromTry})
					}
				}
				if len(hc) == 0 {
					return
				}
				rec.calls = append(rec.calls, callRecord{callee: callee, held: hc, pos: call.Pos()})
			},
		},
	}
	w.WalkFunc(body)
}

// usableClass drops classes that cannot name a graph node: locals are
// position-unique by construction.
func usableClass(cls string) bool {
	if cls == "" {
		return false
	}
	name, _ := lockgraph.CanonicalStatic(cls)
	return name != ""
}

// renderSite renders a position as "pkgpath/file.go:line" — stable across
// checkouts (no absolute paths) for committed baselines and CI artifacts.
func renderSite(pass *framework.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return pass.Pkg.Path() + "/" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
