// Package object implements the Mach kernel-object discipline that ties
// together a simple lock, a reference count, and the deactivation protocol
// of Section 9 of the paper:
//
//   - A reference guarantees only that the DATA STRUCTURE exists; it makes
//     no promise about the object's state. A lock is needed to rely on
//     state.
//   - An object may be deactivated (actively terminated) at any moment it
//     is unlocked, so every operation that depends on liveness re-checks
//     the deactivation flag each time it locks the object, and pointers
//     read from the object cannot be cached across an unlock/relock.
//   - A reference is required in order to (re)lock an object at all.
//   - References are kept in an atomic count (refcount.Atomic), not under
//     the object lock as the paper does: a clone or release reads no other
//     state, so it takes no lock. The lock guards the object's state
//     (active and whatever the embedding type adds).
//   - Deactivation is for objects that are actively terminated (tasks,
//     threads, ports); objects that passively vanish with their last
//     reference (memory maps) never set the flag.
//
// Object is intended for embedding: kernel types (Task, Thread, Port,
// PortSet, Processor, ProcessorSet) embed it and gain the whole discipline.
// The memory object (vm.Object) does not: its count is read together with
// its paging count under its own lock, so it keeps a locked count.
package object

import (
	"errors"
	"fmt"
	"sync/atomic"

	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/machsim/simhook"
	"machlock/internal/trace"
)

// ErrDeactivated is returned by operations that find their object
// deactivated; per Section 9 the operation "performs whatever recovery code
// is required to avoid corruption of data structures and returns a failure
// code".
var ErrDeactivated = errors.New("object: deactivated")

// Object is the embeddable kernel-object base: one simple lock, one atomic
// reference count, one active flag. The zero value is NOT usable; call
// Init (objects are created with one reference, and a zero count is
// indistinguishable from a destroyed object).
type Object struct {
	lock   splock.Lock
	refs   refcount.Atomic
	active bool
	name   string
	class  *trace.Class

	destroyed atomic.Bool
}

// SetClass registers the object with the observability layer under one
// class (typically per kernel type: "kern.task", "ipc.port"): its lock
// traffic, reference traffic, and deactivations all aggregate there, and
// the object joins the class's live census (decremented when the last
// reference destroys it). Call right after Init, before the object is
// shared.
func (o *Object) SetClass(c *trace.Class) {
	o.class = c
	o.lock.SetClass(c)
	o.refs.SetClass(c)
	c.CensusInc()
}

// Init initializes the object as active with a single (creator's)
// reference, per Section 8: "An object is created with a single reference
// to itself. The creator is responsible for removing this reference when
// it is no longer needed."
func (o *Object) Init(name string) {
	o.name = name
	o.refs.Init(1)
	o.active = true
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Lock locks the object's simple lock. The caller must hold a reference:
// "A reference is required in order to relock the object."
func (o *Object) Lock() {
	if o.destroyed.Load() {
		panic(fmt.Sprintf("object: %s: lock of destroyed object (missing reference?)", o.name))
	}
	o.lock.Lock() //machlock:holds — wrapper: the hold escapes to Lock's caller
	simhook.Note(simhook.ObjLock, o, int64(o.refs.Refs()))
}

// Unlock unlocks the object's simple lock.
func (o *Object) Unlock() {
	simhook.Note(simhook.ObjUnlock, o, 0)
	o.lock.Unlock()
}

// TryLock makes a single attempt at the object's lock.
func (o *Object) TryLock() bool {
	if o.destroyed.Load() {
		panic(fmt.Sprintf("object: %s: lock of destroyed object", o.name))
	}
	if !o.lock.TryLock() { //machlock:holds — wrapper: a successful try escapes to TryLock's caller
		return false
	}
	simhook.Note(simhook.ObjLock, o, int64(o.refs.Refs()))
	return true
}

// Active reports whether the object has not been deactivated. The object
// must be locked: the answer is only stable while the lock is held, which
// is the entire point of Section 9's re-check rule.
func (o *Object) Active() bool { return o.active }

// CheckActive returns ErrDeactivated if the object has been deactivated.
// The object must be locked. Operations call this after every relock.
func (o *Object) CheckActive() error {
	if !o.active {
		return ErrDeactivated
	}
	return nil
}

// Deactivate marks the object deactivated, returning false if it already
// was (terminations race; exactly one caller wins and runs the shutdown).
// The object must be locked.
func (o *Object) Deactivate() bool {
	if !o.active {
		return false
	}
	o.active = false
	simhook.Note(simhook.ObjDeactivate, o, 0)
	o.class.Deactivated()
	return true
}

// Reference clones a reference: one atomic increment, with or without the
// object lock held (it never blocks, so it is safe while holding other
// locks). The caller must hold a reference; cloning a dead count panics.
func (o *Object) Reference() { o.refs.Clone() }

// TakeRef clones a reference for translation code: one atomic increment,
// no lock. The caller must already hold, or be covered by, a reference that
// cannot be dropped mid-clone. Every translation path is covered so:
// Space.Translate clones under the space lock, which pins the table's
// reference, and Port.KObject clones under the port lock after checking
// that the port is active, which pins the port's kobject reference. That
// covering reference also keeps Section 10's rule, "a deactivated object
// yields no new references", so no lookup needs an increment-if-not-zero.
func (o *Object) TakeRef() { o.refs.Clone() }

// Refs returns the current reference count (a snapshot: other holders may
// clone or release concurrently).
func (o *Object) Refs() int32 { return o.refs.Refs() }

// Release drops one reference: one atomic decrement. If it was the last,
// destroy is run by the releasing thread, outside any lock, and the
// object's storage is considered gone: any later Lock panics. Because
// destroy may block (it frees resources), the paper forbids calling Release
// while holding any non-sleep lock or between assert_wait and thread_block;
// passing the releasing thread's spin-held count through sched's
// checked-lock machinery enforces the former for checked locks.
//
// Release returns true when the object was destroyed.
func (o *Object) Release(destroy func()) bool {
	if !o.refs.Release() {
		return false
	}
	// Count reached zero: no pointers, no operations in progress, no way
	// to invoke new operations. Destroy.
	o.destroyed.Store(true)
	simhook.Note(simhook.ObjDestroyed, o, 0)
	o.class.CensusDec()
	if destroy != nil {
		destroy()
	}
	return true
}

// Destroyed reports whether the object's storage has been reclaimed.
// Intended for assertions and tests.
func (o *Object) Destroyed() bool { return o.destroyed.Load() }
