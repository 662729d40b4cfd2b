// Package zalloc implements a Mach-style zone allocator: fixed-size object
// zones protected by simple locks, with allocation optionally blocking
// until an element is freed. It is the substrate behind two of the paper's
// running examples:
//
//   - "memory allocation (blocks if memory is not available)" is the
//     paper's first example of an operation requiring the Sleep option —
//     any lock held across zalloc.Alloc must be a sleep lock, and the
//     checked simple locks enforce exactly that;
//   - port allocation "may block", which is why the memory object's
//     pager-port creation needs its customized flag lock (Section 5).
//
// Zones follow the kernel discipline: a simple lock protects the free
// list; a blocked allocator releases the lock with assert_wait/
// thread_block and retries; Free wakes waiters.
package zalloc

import (
	"errors"
	"sync/atomic"

	"machlock/internal/core/splock"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// ErrZoneExhausted is returned by TryAlloc when the zone is empty.
var ErrZoneExhausted = errors.New("zalloc: zone exhausted")

// Zone is a fixed-capacity allocator for elements of one type. New
// elements are produced by the constructor up to the capacity; freed
// elements are recycled LIFO (cache-warm first), as zone allocators do.
type Zone[T any] struct {
	name  string
	lock  splock.Lock
	class *trace.Class

	free     []*T
	made     int
	capacity int
	waiting  bool

	allocs    atomic.Int64
	frees     atomic.Int64
	blocked   atomic.Int64
	construct func() *T
}

// NewZone creates a zone holding at most capacity elements, constructed on
// demand by construct (nil means new(T)).
func NewZone[T any](name string, capacity int, construct func() *T) *Zone[T] {
	if capacity < 1 {
		panic("zalloc: zone capacity must be positive")
	}
	if construct == nil {
		construct = func() *T { return new(T) }
	}
	z := &Zone[T]{name: name, capacity: capacity, construct: construct}
	// One class per zone name: zones of the same name (across restarts or
	// generic instantiations) share a profile entry, as kernel zones do.
	z.class = trace.NewClass("zalloc", "zone."+name, trace.KindSpin)
	z.lock.InitWith(splock.Opts{Class: z.class, Name: "zone." + name})
	return z
}

// Name returns the zone's name.
func (z *Zone[T]) Name() string { return z.name }

// TryAlloc grabs an element without blocking, failing when the zone is at
// capacity with nothing free.
func (z *Zone[T]) TryAlloc() (*T, error) {
	z.lock.Lock()
	el, ok := z.grabLocked()
	z.lock.Unlock()
	if !ok {
		return nil, ErrZoneExhausted
	}
	z.allocs.Add(1)
	return el, nil
}

// Alloc grabs an element, blocking t until one is available — the
// paper's canonical blocking operation. The caller must not hold any
// simple lock (sched enforces this for checked locks); a sleepable
// complex lock may be held.
func (z *Zone[T]) Alloc(t *sched.Thread) *T {
	for {
		z.lock.Lock()
		if el, ok := z.grabLocked(); ok {
			z.lock.Unlock()
			z.allocs.Add(1)
			return el
		}
		// Empty: wait for a Free, releasing the zone lock atomically
		// with respect to the wakeup.
		z.waiting = true
		z.blocked.Add(1)
		sched.AssertWait(t, sched.Event(z))
		z.lock.Unlock()
		sched.ThreadBlock(t)
	}
}

// grabLocked takes from the free list or constructs below capacity; zone
// lock held.
func (z *Zone[T]) grabLocked() (*T, bool) {
	if n := len(z.free); n > 0 {
		el := z.free[n-1]
		z.free = z.free[:n-1]
		return el, true
	}
	if z.made < z.capacity {
		z.made++
		// Census: zone elements are constructed once and recycled forever
		// (kernel zones never shrink), so construction is the lifetime
		// event — cheap enough to count unconditionally, unlike the
		// per-operation alloc/free traffic.
		z.class.CensusInc()
		return z.construct(), true
	}
	return nil, false
}

// Free returns an element to the zone, waking blocked allocators.
// Returning more elements than were allocated panics (a double free).
func (z *Zone[T]) Free(el *T) {
	if el == nil {
		panic("zalloc: freeing nil element")
	}
	z.lock.Lock()
	if len(z.free) >= z.made {
		z.lock.Unlock()
		panic("zalloc: double free (free list exceeds allocations)")
	}
	z.free = append(z.free, el)
	wake := z.waiting
	z.waiting = false
	z.lock.Unlock()
	z.frees.Add(1)
	if wake {
		sched.ThreadWakeup(sched.Event(z))
	}
}

// Stats is a snapshot of zone accounting.
type Stats struct {
	Allocs  int64
	Frees   int64
	Blocked int64 // allocations that had to wait
	InUse   int
	Made    int
}

// Stats returns the zone's accounting.
func (z *Zone[T]) Stats() Stats {
	z.lock.Lock()
	inUse := z.made - len(z.free)
	made := z.made
	z.lock.Unlock()
	return Stats{
		Allocs:  z.allocs.Load(),
		Frees:   z.frees.Load(),
		Blocked: z.blocked.Load(),
		InUse:   inUse,
		Made:    made,
	}
}
