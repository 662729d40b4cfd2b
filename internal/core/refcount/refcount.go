// Package refcount implements the existence-coordination half of the
// paper (Sections 2 and 8): reference counts that guarantee a data
// structure exists whenever any processor could dereference a pointer to
// it.
//
// The protocol, exactly as the paper states it:
//
//   - An object is created with a single reference held by its creator.
//   - New references are obtained only by cloning an existing one while
//     holding the object's lock (or another guarantee that the original
//     cannot vanish mid-clone); cloning never blocks, so it may be done
//     while holding other locks.
//   - Releasing a reference may destroy the object — which frees storage
//     and may block — so it may NOT be done while holding any non-sleep
//     lock, nor between an assert_wait and its thread_block.
//   - When the count reaches zero there are no operations in progress, no
//     pointers, and no way to invoke new operations, so the object and its
//     data structure are destroyed.
//
// Atomic is the kernel-object count (object.Object): a clone is one atomic
// increment and a release one atomic decrement, with no lock taken. The
// paper put "a mutex around an integer variable" because Mach of 1991 could
// not assume atomic read-modify-write; this repo can. Count is the
// lock-protected form, kept where the count is read together with other
// state under the same lock (vm.Object's dual count, vm.Map) and as E6's
// Mach baseline.
package refcount

import (
	"fmt"
	"sync/atomic"

	"machlock/internal/machsim/simhook"
	"machlock/internal/trace"
)

// Count is a reference count protected by its object's lock: every method
// must be called with that lock held (the package cannot check this
// itself). vm.Object and vm.Map keep it; the zero value is a dead count;
// use Init.
type Count struct {
	n int32

	// class is the optional observability registration (KindRef); nil
	// means untraced. Immutable after SetClass. Call sites gate on the
	// inlinable class.On(), so an untraced clone or release makes no call
	// into the trace layer.
	class *trace.Class
}

// SetClass registers the count with the observability layer; clones and
// releases then appear in the flight recorder and per-class profile. Call
// before concurrent use.
func (c *Count) SetClass(cl *trace.Class) { c.class = cl }

// Init sets the count to n references (normally 1: the creator's).
func (c *Count) Init(n int32) {
	if n < 0 {
		panic("refcount: negative initial count")
	}
	c.n = n
}

// Refs returns the current count.
func (c *Count) Refs() int32 { return c.n }

// Clone acquires an additional reference by cloning an existing one. The
// caller must hold the object's lock and must itself hold a reference —
// cloning a dead (zero) count is the use-after-free the whole protocol
// exists to prevent, and panics.
func (c *Count) Clone() {
	simhook.Yield(simhook.RefClone, c)
	if c.n <= 0 {
		panic(fmt.Sprintf("refcount: cloning a dead reference (count %d)", c.n))
	}
	c.n++
	simhook.Note(simhook.RefClone, c, int64(c.n))
	if c.class.On() {
		c.class.RefClone(int64(c.n))
	}
}

// Release drops one reference, returning true when the count reaches zero
// and the caller must destroy the object. Over-release panics.
func (c *Count) Release() bool {
	simhook.Yield(simhook.RefRelease, c)
	if c.n <= 0 {
		panic(fmt.Sprintf("refcount: releasing unheld reference (count %d)", c.n))
	}
	c.n--
	simhook.Note(simhook.RefRelease, c, int64(c.n))
	if c.class.On() {
		c.class.RefRelease(int64(c.n))
	}
	return c.n == 0
}

// Atomic is a lock-free reference count over hardware atomics, the count
// every kernel object keeps (object.Object). The caller of Clone must hold
// a reference, or be covered by one that cannot be dropped mid-clone; no
// lock is required.
type Atomic struct {
	n     atomic.Int32
	class *trace.Class
}

// Init sets the count.
func (a *Atomic) Init(n int32) { a.n.Store(n) }

// SetClass registers the count with the observability layer (see
// Count.SetClass).
func (a *Atomic) SetClass(cl *trace.Class) { a.class = cl }

// Refs returns the current count.
func (a *Atomic) Refs() int32 { return a.n.Load() }

// Clone increments the count, panicking if it observes a dead count. The
// clone is noted before the panic, so a schedule explorer's model names a
// resurrection rather than a bare panic.
func (a *Atomic) Clone() {
	simhook.Yield(simhook.RefClone, a)
	n := a.n.Add(1)
	simhook.Note(simhook.RefClone, a, int64(n))
	if n <= 1 {
		panic("refcount: cloning a dead reference (atomic)")
	}
	if a.class.On() {
		a.class.RefClone(int64(n))
	}
}

// Release decrements, returning true at zero. Like Clone, it notes the
// observed count before an over-release panics.
func (a *Atomic) Release() bool {
	simhook.Yield(simhook.RefRelease, a)
	n := a.n.Add(-1)
	simhook.Note(simhook.RefRelease, a, int64(n))
	if n < 0 {
		panic("refcount: releasing unheld reference (atomic)")
	}
	if a.class.On() {
		a.class.RefRelease(int64(n))
	}
	return n == 0
}
