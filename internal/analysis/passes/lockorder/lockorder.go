// Package lockorder checks lock acquisition order in two ways:
//
//  1. Against declared hierarchy ranks: locks created with
//     (*splock.Hierarchy).NewOrdered(name, rank) carry a compile-time
//     constant rank; acquiring a lock while holding one of equal or
//     higher rank is the same violation the runtime checker reports,
//     caught statically.
//  2. Against the rest of the program: every nested acquisition records
//     a directed edge between the two locks' type-level classes
//     ("vm.Map.lock" -> "vm.Object.lock"); an edge whose reverse was
//     recorded anywhere else — earlier in this package or in any
//     dependency, via package facts — is an inconsistency, reported with
//     both sites.
//
// Try-acquires are exempt (the paper's backout protocol acquires against
// the order on purpose, failing back out on contention), as is
// splock.LockPair (the sanctioned address-ordered same-class pair).
package lockorder

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"machlock/internal/analysis/framework"
	"machlock/internal/analysis/lockstate"
)

var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "lockorder reports lock acquisitions that invert an order established " +
		"elsewhere in the program, and acquisitions that violate declared " +
		"splock.Hierarchy ranks.",
	Run: run,
}

// Fact is the aggregate ordering knowledge at and below one package:
// first-seen sites for each directed edge between lock classes, and the
// declared hierarchy ranks. Aggregating transitively means a package only
// needs its direct imports' facts.
type Fact struct {
	Edges map[string]string // "from\x00to" -> "file:line:col"
	Ranks map[string]int    // lock class -> hierarchy rank
}

const splockPath = "machlock/internal/core/splock"

func run(pass *framework.Pass) (any, error) {
	agg := Fact{Edges: map[string]string{}, Ranks: map[string]int{}}
	for _, imp := range pass.Pkg.Imports() {
		v, ok := pass.ImportPackageFact(imp.Path())
		if !ok {
			continue
		}
		f, ok := v.(Fact)
		if !ok {
			continue
		}
		for k, site := range f.Edges {
			if _, dup := agg.Edges[k]; !dup {
				agg.Edges[k] = site
			}
		}
		for k, r := range f.Ranks {
			agg.Ranks[k] = r
		}
	}

	collectRanks(pass, agg.Ranks)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, &agg)
		}
	}

	pass.ExportPackageFact(agg)
	return nil, nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl, agg *Fact) {
	w := &lockstate.Walker{
		Info: pass.TypesInfo,
		Hooks: lockstate.Hooks{
			Acquire: func(op lockstate.Op, held []lockstate.Held) {
				if op.FromTry || op.ClassKey == "" || skipClass(op.ClassKey) {
					return
				}
				for _, h := range held {
					from, to := h.Op.ClassKey, op.ClassKey
					if from == to || skipClass(from) {
						continue
					}
					if h.Op.FromLockPair && op.FromLockPair {
						continue
					}
					if ra, okA := agg.Ranks[from]; okA {
						if rb, okB := agg.Ranks[to]; okB && ra >= rb {
							pass.Reportf(op.Call.Pos(),
								"hierarchy violation: acquiring %s (rank %d) while holding %s (rank %d); ranks must strictly increase",
								to, rb, from, ra)
						}
					}
					if site, inverted := agg.Edges[to+"\x00"+from]; inverted {
						pass.Reportf(op.Call.Pos(),
							"inconsistent lock order: %s is acquired before %s here, but %s before %s at %s",
							from, to, to, from, site)
						continue // don't record both directions from one conflict
					}
					key := from + "\x00" + to
					if _, seen := agg.Edges[key]; !seen {
						agg.Edges[key] = pass.Fset.Position(op.Call.Pos()).String()
					}
				}
			},
		},
	}
	w.WalkFunc(fd.Body)
}

// skipClass drops classes that cannot meaningfully match across
// functions: locals are unique by construction.
func skipClass(class string) bool {
	return strings.HasPrefix(class, "local:")
}

// collectRanks finds h.NewOrdered(name, rank) calls whose result is bound
// to a variable, and maps that variable's lock class to the constant rank.
func collectRanks(pass *framework.Pass, ranks map[string]int) {
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return
		}
		fn, _ := lockstate.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Name() != "NewOrdered" || fn.Pkg() == nil || fn.Pkg().Path() != splockPath {
			return
		}
		tv, ok := pass.TypesInfo.Types[call.Args[1]]
		if !ok || tv.Value == nil {
			return
		}
		rank, ok := constant.Int64Val(constant.ToInt(tv.Value))
		if !ok {
			return
		}
		if id, isIdent := lhs.(*ast.Ident); isIdent {
			key := lockstate.ClassKeyOf(pass.TypesInfo, id)
			if !skipClass(key) {
				ranks[key] = int(rank)
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i := range n.Values {
					if i < len(n.Names) {
						bind(n.Names[i], n.Values[i])
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				}
			}
			return true
		})
	}
}

var _ = types.Universe
