package vm

import (
	"fmt"

	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// classObject aggregates lock and reference traffic for every memory
// object under one profile entry.
var classObject = trace.NewClass("vm", "vm.object", trace.KindSpin)

// Object is a memory object: "a region of data provided by a server that
// can be mapped into a task", represented by a data structure and its
// pager port. It is the paper's showcase for two techniques:
//
//   - Dual reference counts (Section 8): a conventional reference count
//     for the data structure, plus pagingInProgress — "a hybrid of a
//     reference and a lock because it excludes operations such as object
//     termination that cannot be performed while paging is in progress."
//     The reference count therefore stays a locked refcount.Count, unlike
//     the atomic count of object.Object: the last release sets terminating
//     and drains pagingInProgress in the same hold of the object lock, and
//     a fault that misses takes its paging count in the hold that checks
//     terminating.
//
//   - A customized lock (Section 5): pager-port creation can block, so it
//     cannot happen under the object's simple lock; instead two boolean
//     flags set under the simple lock extend it into a creation lock
//     (pagerCreated: someone is creating; pagerInitialized: done).
type Object struct {
	lock splock.Lock
	refs refcount.Count

	pagingInProgress int32
	terminating      bool

	pages map[uint64]*Page
	size  uint64 // in pages

	pager            *ipc.Port
	pagerCreated     bool
	pagerInitialized bool
	pagerWanted      bool

	pool *PagePool
}

// NewObject creates a memory object of the given size (in pages) backed by
// the pool, holding one creator reference.
func NewObject(pool *PagePool, size uint64) *Object {
	o := &Object{pages: make(map[uint64]*Page), size: size, pool: pool}
	o.lock.InitWith(splock.Opts{Class: classObject, Name: "vm.object"})
	o.refs.Init(1)
	o.refs.SetClass(classObject)
	return o
}

// Size returns the object's size in pages.
func (o *Object) Size() uint64 { return o.size }

// Reference clones a reference to the object (lock, increment, unlock).
func (o *Object) Reference() {
	o.lock.Lock()
	o.refs.Clone()
	o.lock.Unlock()
}

// Refs returns the current reference count (for tests).
func (o *Object) Refs() int32 {
	o.lock.Lock()
	defer o.lock.Unlock()
	return o.refs.Refs()
}

// Release drops one reference. Dropping the last one terminates the
// object: termination waits for paging operations to drain (the hybrid
// count's lock half), then frees all resident pages and destroys the pager
// port. Like every release it may block, so callers may not hold simple
// locks.
func (o *Object) Release(t *sched.Thread) {
	o.lock.Lock()
	//machvet:allow holdblock — decrement under the object's own lock is the release protocol; the blocking teardown runs after Unlock
	if !o.refs.Release() {
		o.lock.Unlock()
		return
	}
	// Last reference: terminate. Paging in progress excludes termination;
	// wait for it to drain.
	o.terminating = true
	for o.pagingInProgress > 0 {
		sched.ThreadSleep(t, sched.Event(&o.pagingInProgress), func() { o.lock.Unlock() })
		o.lock.Lock()
	}
	pages := o.pages
	o.pages = nil
	pager := o.pager
	o.pager = nil
	o.lock.Unlock()

	for _, pg := range pages {
		o.pool.Free(pg.pa)
	}
	if pager != nil {
		pager.Destroy()
	}
}

// PagingBegin registers a paging operation in progress, failing if the
// object is terminating (new operations are excluded, exactly like a lock
// that termination holds forever).
func (o *Object) PagingBegin() error {
	o.lock.Lock()
	defer o.lock.Unlock()
	if o.terminating {
		return ErrTerminating
	}
	o.pagingInProgress++
	return nil
}

// PagingEnd retires a paging operation, waking a terminator waiting for
// the count to drain.
func (o *Object) PagingEnd() {
	o.lock.Lock()
	o.pagingInProgress--
	if o.pagingInProgress < 0 {
		o.lock.Unlock()
		panic("vm: PagingEnd without PagingBegin")
	}
	wake := o.pagingInProgress == 0 && o.terminating
	o.lock.Unlock()
	if wake {
		sched.ThreadWakeup(sched.Event(&o.pagingInProgress))
	}
}

// PagingInProgress returns the current paging count (for tests).
func (o *Object) PagingInProgress() int32 {
	o.lock.Lock()
	defer o.lock.Unlock()
	return o.pagingInProgress
}

// EnsurePager returns the object's pager port, creating it at most once
// via the customized-lock protocol: "a boolean flag is set to indicate
// that the operation is in progress and a second one is set when the
// operation is complete. Both of these flags are set while holding a
// simple lock on the memory object structure." The create callback may
// block (port allocation does), which is the whole reason the simple lock
// alone cannot cover the operation.
func (o *Object) EnsurePager(t *sched.Thread, create func() *ipc.Port) *ipc.Port {
	o.lock.Lock()
	for {
		if o.pagerInitialized {
			p := o.pager
			o.lock.Unlock()
			return p
		}
		if o.pagerCreated {
			// Another thread is creating: wait for completion.
			o.pagerWanted = true
			sched.ThreadSleep(t, sched.Event(&o.pagerCreated), func() { o.lock.Unlock() })
			o.lock.Lock()
			continue
		}
		// We create. Mark in-progress under the lock, then drop the
		// lock for the blocking allocation.
		o.pagerCreated = true
		o.lock.Unlock()

		port := create()

		o.lock.Lock()
		o.pager = port
		o.pagerInitialized = true
		wake := o.pagerWanted
		o.pagerWanted = false
		if wake {
			// Wakeup is safe under a simple lock (it never blocks).
			sched.ThreadWakeup(sched.Event(&o.pagerCreated))
		}
	}
}

// Pager returns the pager port if initialized (nil otherwise).
func (o *Object) Pager() *ipc.Port {
	o.lock.Lock()
	defer o.lock.Unlock()
	if !o.pagerInitialized {
		return nil
	}
	return o.pager
}

// lookupPage returns the resident page at offset; object lock held.
func (o *Object) lookupPage(offset uint64) (*Page, bool) {
	pg, ok := o.pages[offset]
	return pg, ok
}

// ResidentPages returns the number of resident pages.
func (o *Object) ResidentPages() int {
	o.lock.Lock()
	defer o.lock.Unlock()
	return len(o.pages)
}

// String implements fmt.Stringer.
func (o *Object) String() string {
	return fmt.Sprintf("vm.Object(size=%d, resident=%d)", o.size, o.ResidentPages())
}
