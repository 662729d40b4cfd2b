// Package lockstate is the shared semantic layer under the machvet
// passes: it classifies calls against the repository's locking vocabulary
// (splock simple locks, cxlock complex locks, object.Object's embedded
// discipline, refcount, sched's blocking primitives) and provides a
// structured statement walker that tracks the set of locks held along a
// function's paths.
//
// The classification is deliberately table-driven and type-exact: an
// operation is recognized by the (package, receiver type, method) triple
// of the *declared* callee, so promoted methods (ipc.Port embedding
// object.Object) and interface calls (splock.Mutex, machlock.RWLocker)
// resolve to the same table rows as direct calls.
package lockstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// LockClass distinguishes the two lock families of the paper.
type LockClass int

const (
	// Simple is a spin lock: splock.Lock and its wrappers, and the
	// object.Object embedded lock. May never be held across a blocking
	// operation.
	Simple LockClass = iota + 1
	// Complex is a cxlock readers/writer lock; acquisitions may sleep.
	Complex
)

func (c LockClass) String() string {
	switch c {
	case Simple:
		return "simple lock"
	case Complex:
		return "complex lock"
	default:
		return "lock"
	}
}

// OpKind is the effect a recognized call has on lock/reference state.
type OpKind int

const (
	OpNone OpKind = iota
	// OpAcquire unconditionally acquires (splock Lock, cxlock Read/Write,
	// ClassLock Acquire).
	OpAcquire
	// OpTryAcquire acquires only if the call's boolean result is true.
	OpTryAcquire
	// OpRelease releases (Unlock, Done, ClassLock Release).
	OpRelease
	// OpUpgradeMayDrop is cxlock ReadToWrite: a true result means the
	// hold was LOST to a competing upgrader.
	OpUpgradeMayDrop
	// OpUpgradeKeep is cxlock TryReadToWrite: the hold survives either
	// result.
	OpUpgradeKeep
	// OpDowngrade is cxlock WriteToRead: the hold continues in read mode.
	OpDowngrade
	// OpRefTake clones a reference (Reference, TakeRef, refcount Clone).
	OpRefTake
	// OpRefRelease drops a reference; the paper makes this a potentially
	// blocking operation ("Release may destroy and therefore block").
	OpRefRelease
)

// Op is one classified lock/reference operation at a call site.
type Op struct {
	Kind  OpKind
	Class LockClass
	// Key identifies the lock instance within the enclosing function: the
	// canonical rendering of the receiver expression ("m.refLock", "p").
	Key string
	// ClassKey identifies the lock's type-level class for cross-function
	// order graphs ("vm.Map.refLock", "ipc.Port"); see ClassKeyOf.
	ClassKey string
	// Root is the base variable of the receiver expression, if it is one.
	Root types.Object
	// Recv is the receiver expression; nil for package-level functions.
	Recv ast.Expr
	Call *ast.CallExpr
	// MayBlock marks operations that can sleep or destroy: cxlock
	// acquisitions and reference releases.
	MayBlock bool
	// IsObject marks the object.Object discipline (deactivatable kernel
	// objects), which the refdiscipline pass cares about.
	IsObject bool
	// FromLockPair marks the two acquisitions synthesized for
	// splock.LockPair, which is the sanctioned same-rank ordering escape.
	FromLockPair bool
	// FromTry marks an acquisition that happened through a successful
	// TryLock (branch-condition or spin-loop). Try-acquires are the
	// paper's backout protocol and exempt from ordering checks.
	FromTry bool
	// FuncName is the callee's name, for diagnostics.
	FuncName string
}

const (
	pkgSplock = "machlock/internal/core/splock"
	pkgCxlock = "machlock/internal/core/cxlock"
	pkgObject = "machlock/internal/core/object"
	pkgRefcnt = "machlock/internal/core/refcount"
	pkgSched  = "machlock/internal/sched"
	pkgVM     = "machlock/internal/vm"
	pkgMach   = "machlock"
	pkgSync   = "sync"
	pkgTime   = "time"
)

type opEntry struct {
	kind     OpKind
	class    LockClass
	mayBlock bool
	isObject bool
}

// methodTable maps pkgPath + "\x00" + recvTypeName + "\x00" + method to
// the operation it performs. Receiver-less (package-level) functions use
// an empty receiver name.
var methodTable = map[string]opEntry{}

func reg(pkg, recv, method string, e opEntry) {
	methodTable[pkg+"\x00"+recv+"\x00"+method] = e
}

func init() {
	// splock simple locks: every implementation and the Mutex interface.
	// splock.Lock covers both production algorithms (TAS+TTAS and
	// queue): the algorithm is an option on the one type, so the
	// type-exact rows below classify both identically. SimLock is the
	// coherence-simulation twin with the same hold discipline.
	for _, recv := range []string{"Lock", "Checked", "OrderedLock", "Noop", "Mutex", "SimLock"} {
		reg(pkgSplock, recv, "Lock", opEntry{kind: OpAcquire, class: Simple})
		reg(pkgSplock, recv, "TryLock", opEntry{kind: OpTryAcquire, class: Simple})
		reg(pkgSplock, recv, "Unlock", opEntry{kind: OpRelease, class: Simple})
	}

	// object.Object: the embedded simple lock plus the reference protocol.
	reg(pkgObject, "Object", "Lock", opEntry{kind: OpAcquire, class: Simple, isObject: true})
	reg(pkgObject, "Object", "TryLock", opEntry{kind: OpTryAcquire, class: Simple, isObject: true})
	reg(pkgObject, "Object", "Unlock", opEntry{kind: OpRelease, class: Simple, isObject: true})
	reg(pkgObject, "Object", "Reference", opEntry{kind: OpRefTake, isObject: true})
	reg(pkgObject, "Object", "TakeRef", opEntry{kind: OpRefTake, isObject: true})
	reg(pkgObject, "Object", "Release", opEntry{kind: OpRefRelease, mayBlock: true, isObject: true})

	// refcount: Clone never blocks; Release may destroy and so may block.
	for _, recv := range []string{"Count", "Atomic"} {
		reg(pkgRefcnt, recv, "Clone", opEntry{kind: OpRefTake})
		reg(pkgRefcnt, recv, "Release", opEntry{kind: OpRefRelease, mayBlock: true})
	}

	// cxlock complex locks (machlock.ComplexLock is an alias of
	// cxlock.Lock, so the facade resolves here too), plus the machlock
	// Locker/RWLocker interfaces.
	for _, tr := range []struct{ pkg, recv string }{
		{pkgCxlock, "Lock"},
		{pkgMach, "Locker"},
		{pkgMach, "RWLocker"},
	} {
		reg(tr.pkg, tr.recv, "Read", opEntry{kind: OpAcquire, class: Complex, mayBlock: true})
		reg(tr.pkg, tr.recv, "Write", opEntry{kind: OpAcquire, class: Complex, mayBlock: true})
		reg(tr.pkg, tr.recv, "TryRead", opEntry{kind: OpTryAcquire, class: Complex})
		reg(tr.pkg, tr.recv, "TryWrite", opEntry{kind: OpTryAcquire, class: Complex})
		reg(tr.pkg, tr.recv, "Done", opEntry{kind: OpRelease, class: Complex})
		reg(tr.pkg, tr.recv, "ReadToWrite", opEntry{kind: OpUpgradeMayDrop, class: Complex, mayBlock: true})
		reg(tr.pkg, tr.recv, "TryReadToWrite", opEntry{kind: OpUpgradeKeep, class: Complex, mayBlock: true})
		reg(tr.pkg, tr.recv, "WriteToRead", opEntry{kind: OpDowngrade, class: Complex})
	}
	reg(pkgCxlock, "ClassLock", "Acquire", opEntry{kind: OpAcquire, class: Complex, mayBlock: true})
	reg(pkgCxlock, "ClassLock", "TryAcquire", opEntry{kind: OpTryAcquire, class: Complex})
	reg(pkgCxlock, "ClassLock", "Release", opEntry{kind: OpRelease, class: Complex})
}

// blockingTable lists calls that block (or may block) outright, beyond
// the MayBlock lock/reference operations above. vm's Release methods are
// the "object release paths" of the paper: the last reference tears down
// entries, pages, and pagers, all of which can block.
var blockingTable = map[string]string{
	pkgSched + "\x00\x00ThreadBlock":      "sched.ThreadBlock",
	pkgSched + "\x00\x00ThreadSleep":      "sched.ThreadSleep",
	pkgSched + "\x00Table\x00ThreadBlock": "sched.Table.ThreadBlock",
	pkgSched + "\x00Table\x00ThreadSleep": "sched.Table.ThreadSleep",
	pkgVM + "\x00Map\x00Release":          "vm.Map.Release (may destroy)",
	pkgVM + "\x00Object\x00Release":       "vm.Object.Release (may destroy)",
	pkgTime + "\x00\x00Sleep":             "time.Sleep",
	pkgSync + "\x00WaitGroup\x00Wait":     "sync.WaitGroup.Wait",
	pkgSync + "\x00Cond\x00Wait":          "sync.Cond.Wait",
}

// trustedLeafPkgs are the simulation substrate: the scheduler's own
// machinery (AssertWait, ThreadWakeup, ClearWait are *defined* to be
// callable with simple locks held — the AssertWait/unlock/ThreadBlock
// idiom depends on it) and the hardware model (IPI delivery, SPL). Their
// internal channels and mutexes model hardware, not kernel sleeps, so
// may-block summaries never propagate out of them; the genuinely blocking
// entry points (ThreadBlock, ThreadSleep) are in blockingTable above.
// sync.Mutex is excluded from blockingTable for the same reason: the
// simulation uses host mutexes as interlocks, not as sleep points.
var trustedLeafPkgs = map[string]bool{
	pkgSched:               true,
	"machlock/internal/hw": true,
	// The machsim seam and harness: Yield may suspend a virtual thread,
	// but that suspension models a preemption (hardware), not a kernel
	// sleep — a spinning holder parked at a yield point is exactly the
	// preempted-holder schedule the harness exists to explore.
	"machlock/internal/machsim/simhook": true,
	"machlock/internal/machsim":         true,
}

// CalleeFunc resolves the called function and the receiver expression of
// a call, or nil when the callee is not a statically known function.
func CalleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if fn.Signature().Recv() != nil {
				return fn, fun.X
			}
			return fn, nil
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, nil
		}
	}
	return nil, nil
}

// funcKey builds the method-table key for a declared function.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if r := fn.Signature().Recv(); r != nil {
		t := r.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name()
		} else if iface, ok := t.(*types.Interface); ok {
			_ = iface // unnamed interface receiver: leave recv empty
		}
	}
	return pkg + "\x00" + recv + "\x00" + fn.Name()
}

// FuncID renders a declared function for cross-package fact keys and
// diagnostics: "Func", "Type.Method" or "(*Type).Method".
func FuncID(fn *types.Func) string {
	r := fn.Signature().Recv()
	if r == nil {
		return fn.Name()
	}
	t := r.Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		ptr = "*"
	}
	name := "?"
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	if ptr != "" {
		return "(" + ptr + name + ")." + fn.Name()
	}
	return name + "." + fn.Name()
}

// Classify returns the lock/reference operations a call performs, empty
// when the call is not part of the locking vocabulary. splock.LockPair
// yields two acquisition ops (its second and third arguments).
func Classify(info *types.Info, call *ast.CallExpr) []Op {
	fn, recv := CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == pkgSplock && fn.Name() == "LockPair" && fn.Signature().Recv() == nil {
		if len(call.Args) != 3 {
			return nil
		}
		var ops []Op
		for _, arg := range call.Args[1:] {
			ops = append(ops, Op{
				Kind: OpAcquire, Class: Simple,
				Key:      ExprKey(arg),
				ClassKey: ClassKeyOf(info, arg),
				Root:     RootObject(info, arg),
				Recv:     arg, Call: call,
				FromLockPair: true,
				FuncName:     "LockPair",
			})
		}
		return ops
	}
	e, ok := methodTable[funcKey(fn)]
	if !ok {
		return nil
	}
	op := Op{
		Kind: e.kind, Class: e.class, MayBlock: e.mayBlock, IsObject: e.isObject,
		Recv: recv, Call: call, FuncName: fn.Name(),
	}
	if recv != nil {
		op.Key = ExprKey(recv)
		op.ClassKey = ClassKeyOf(info, recv)
		op.Root = RootObject(info, recv)
	}
	return []Op{op}
}

// BlockingCall reports whether the call blocks (or may block) according
// to the curated table; the description names the callee for diagnostics.
func BlockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn, _ := CalleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	desc, ok := blockingTable[funcKey(fn)]
	return desc, ok
}

// ExprKey renders an expression as a canonical lock-instance key.
func ExprKey(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }

// RootObject returns the variable at the base of a selector chain
// ("m.refLock" -> m), or nil.
func RootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// namedTypeName returns "pkg.Type" for a (possibly pointer-to) named
// type, or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// isLockTypeName reports whether a named type is itself one of the lock
// types — such types must not anchor a ClassKey, or every splock.Lock in
// the program would collapse into one ordering class.
func isLockTypeName(name string) bool {
	switch name {
	case "splock.Lock", "splock.Checked", "splock.OrderedLock",
		"splock.Noop", "splock.Mutex", "cxlock.Lock", "cxlock.ClassLock",
		"machlock.ComplexLock", "object.Object":
		return true
	}
	return false
}

// ClassKeyOf derives the type-level ordering class of a lock receiver
// expression:
//
//   - a field of a named container type anchors there: m.refLock on
//     *vm.Map -> "vm.Map.refLock";
//   - a bare variable of a non-lock named type (an object.Object
//     embedder) is classed by its type: p *ipc.Port -> "ipc.Port";
//   - a package-level lock variable is classed by name: "pkg.GlobalLock";
//   - a local lock variable gets a position-unique class, which can never
//     conflict across functions (by design: nothing is known about it).
func ClassKeyOf(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if tv, ok := info.Types[x.X]; ok {
			if name := namedTypeName(tv.Type); name != "" && !isLockTypeName(name) {
				return name + "." + x.Sel.Name
			}
		}
		return ClassKeyOf(info, x.X) + "." + x.Sel.Name
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if name := namedTypeName(v.Type()); name != "" && !isLockTypeName(name) {
				return name
			}
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			return "local:" + v.Name() + "@" + strconv.Itoa(int(v.Pos()))
		}
		return x.Name
	case *ast.IndexExpr:
		return ClassKeyOf(info, x.X) + "[]"
	case *ast.StarExpr:
		return ClassKeyOf(info, x.X)
	default:
		return types.ExprString(e)
	}
}

// IsPanic reports whether the call is the panic builtin.
func IsPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// ChanType reports whether t is (or points to) a channel type.
func ChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

var _ = token.NoPos
