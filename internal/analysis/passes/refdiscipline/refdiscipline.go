// Package refdiscipline enforces the paper's reference-before-lock rules
// for deactivatable kernel objects (types embedding object.Object):
//
//  1. Reference to relock: a function that unlocks such an object and
//     later locks it again must hold its own reference across the window
//     (TakeRef/Clone before the unlock) or re-validate with
//     Active/CheckActive after relocking — otherwise the object may have
//     been deactivated and reused while unlocked.
//  2. No caching across unlock/relock: a value loaded from the object's
//     fields before the unlock is stale after the relock and must be
//     re-fetched (the deactivation-recheck rule).
//  3. Objects pulled out of shared containers (map/slice indexing) must
//     take a reference before their first Lock: the container's reference
//     is not the caller's.
package refdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"machlock/internal/analysis/framework"
	"machlock/internal/analysis/lockstate"
)

var Analyzer = &framework.Analyzer{
	Name: "refdiscipline",
	Doc: "refdiscipline reports locking a deactivatable object without a " +
		"reference (relock after unlock, or straight out of a shared container) " +
		"and reuse of values loaded before an unlock/relock window.",
	Run: run,
}

const objectPath = "machlock/internal/core/object"

// embedsObject reports whether t (or what it points to) is a struct that
// embeds object.Object, directly or through another embedded struct.
func embedsObject(t types.Type) bool {
	return embedsObject1(t, 0)
}

func embedsObject1(t types.Type, depth int) bool {
	if t == nil || depth > 3 {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == objectPath && n.Obj().Name() == "Object" {
		return true
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && embedsObject1(f.Type(), depth+1) {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// fieldLoad records "v := obj.Field" for later staleness checks.
type fieldLoad struct {
	root types.Object // the object variable loaded from
	pos  token.Pos
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Prescan: values loaded from deactivatable objects, and object
	// variables populated straight from an indexing expression.
	loads := map[types.Object]fieldLoad{}
	fromContainer := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if ok && id.Name == "_" {
				ok = false
			}
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.SelectorExpr:
				if root := lockstate.RootObject(info, rhs); root != nil &&
					root != obj && embedsObject(root.Type()) {
					loads[obj] = fieldLoad{root: root, pos: as.Pos()}
				}
			case *ast.IndexExpr:
				if embedsObject(obj.Type()) {
					fromContainer[obj] = true
				}
			}
		}
		return true
	})

	type window struct {
		unlock token.Pos
		relock token.Pos
	}
	const (
		stUntouched = iota
		stUnlocked
		stRelocked
	)
	phase := map[types.Object]int{}
	windows := map[types.Object]window{}
	refTaken := map[types.Object]bool{}
	type pendingRelock struct {
		pos  token.Pos
		root types.Object
		key  string
	}
	var relocks []pendingRelock

	w := &lockstate.Walker{
		Info: info,
		Hooks: lockstate.Hooks{
			Ref: func(op lockstate.Op, _ []lockstate.Held) {
				if op.Kind == lockstate.OpRefTake && op.Root != nil {
					refTaken[op.Root] = true
				}
			},
			Release: func(op lockstate.Op) {
				if !op.IsObject || op.Kind != lockstate.OpRelease || op.Root == nil {
					return
				}
				if phase[op.Root] == stUntouched {
					phase[op.Root] = stUnlocked
					win := windows[op.Root]
					win.unlock = op.Call.Pos()
					windows[op.Root] = win
				}
			},
			Acquire: func(op lockstate.Op, held []lockstate.Held) {
				if !op.IsObject || op.Root == nil {
					return
				}
				if fromContainer[op.Root] && !refTaken[op.Root] {
					delete(fromContainer, op.Root) // one report per variable
					pass.Reportf(op.Call.Pos(),
						"locking %s, which was taken from a shared container without a reference; TakeRef it first (the container's reference is not yours)",
						op.Key)
				}
				if phase[op.Root] == stUnlocked {
					phase[op.Root] = stRelocked
					win := windows[op.Root]
					win.relock = op.Call.Pos()
					windows[op.Root] = win
					if !refTaken[op.Root] {
						relocks = append(relocks, pendingRelock{
							pos: op.Call.Pos(), root: op.Root, key: op.Key,
						})
					}
				}
			},
		},
	}
	if !w.WalkFunc(fd.Body) {
		return // goto: control flow too irregular to judge
	}

	// Relock-without-reference, unless the code re-validates the object
	// after relocking (the deactivation-recheck idiom).
	for _, r := range relocks {
		if rechecksActive(info, fd.Body, r.root, r.pos) {
			continue
		}
		pass.Reportf(r.pos,
			"%s is relocked after an unlock without holding a new reference; the object may have been deactivated while unlocked — take a reference before unlocking, or recheck Active/CheckActive after relocking",
			r.key)
	}

	// Staleness: values loaded before the unlock, used after the relock.
	for v, ld := range loads {
		win, ok := windows[ld.root]
		if !ok || win.relock == token.NoPos || ld.pos >= win.unlock {
			continue
		}
		use := firstUseAfter(info, fd.Body, v, win.relock)
		if use == token.NoPos {
			continue
		}
		pass.Reportf(use,
			"%s was loaded from %s before its lock was dropped and reacquired; the value is stale after the relock — re-read it under the new hold",
			v.Name(), ld.root.Name())
	}
}

// rechecksActive reports whether root's Active or CheckActive method is
// called after pos.
func rechecksActive(info *types.Info, body *ast.BlockStmt, root types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		fn, recv := lockstate.CalleeFunc(info, call)
		if fn == nil || recv == nil {
			return true
		}
		if fn.Name() != "Active" && fn.Name() != "CheckActive" {
			return true
		}
		if lockstate.RootObject(info, recv) == root {
			found = true
		}
		return !found
	})
	return found
}

// firstUseAfter returns the position of the first use of v after pos.
func firstUseAfter(info *types.Info, body *ast.BlockStmt, v types.Object, pos token.Pos) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if first != token.NoPos {
			return false
		}
		id, ok := n.(*ast.Ident)
		if ok && id.Pos() > pos && info.Uses[id] == v {
			first = id.Pos()
		}
		return first == token.NoPos
	})
	return first
}
