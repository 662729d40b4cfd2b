package vm

import (
	"fmt"
	"sort"
	"sync/atomic"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// Observability classes: every map shares one class per lock site, so the
// contention profile aggregates across all maps in the system.
var (
	classMap    = trace.NewClass("vm", "vm.map", trace.KindComplex)
	classMapRef = trace.NewClass("vm", "vm.map.ref", trace.KindRef)

	// opFault spans one page fault end to end, splitting its latency into
	// lock wait and work (see trace.BeginSpan).
	opFault = trace.NewOp("vm", "op.fault")
)

// Entry is one allocated region of a map: [start, end) in page numbers,
// backed by object at the given page offset. Protected by the map's
// complex lock.
type Entry struct {
	start, end   uint64
	object       *Object
	offset       uint64
	wired        int
	inTransition bool
}

// Start returns the entry's first page number.
func (e *Entry) Start() uint64 { return e.start }

// End returns one past the entry's last page number.
func (e *Entry) End() uint64 { return e.end }

// WireCount returns the entry's wire count.
func (e *Entry) WireCount() int { return e.wired }

// Fetcher supplies page contents during a fault — the pager upcall. It may
// block (an RPC to an external pager), which is legal while holding the
// map's sleepable lock. A nil fetcher means zero-fill.
type Fetcher func(t *sched.Thread, o *Object, offset uint64) []byte

// Map is a task's address space description: "a paged virtual address
// space", protected by a sleepable complex lock ("Most complex locks use
// the sleep option, including the lock on a memory map data structure").
// Maps are refcounted but never deactivated — they are the paper's example
// of objects that "passively vanish when the last reference to them
// disappears".
type Map struct {
	lock cxlock.Lock

	refLock splock.Lock
	refs    refcount.Count

	entries []*Entry
	pool    *PagePool
	fetch   Fetcher

	faults    atomic.Int64
	shortWait atomic.Int64 // faults that hit a memory shortage and waited
}

// NewMap creates an empty map over the pool with one creator reference.
// The map lock is sleepable (pager RPCs block under it), recursive (the
// vm_map_pageable protocol re-acquires it), and reader-biased: lookups and
// faults — the hot paths — take the lock for reading far more often than
// allocations take it for writing, so readers publish themselves in the
// BRAVO slot table instead of serializing on the interlock.
func NewMap(pool *PagePool) *Map {
	m := &Map{pool: pool}
	m.lock.InitWith(cxlock.Options{
		Sleep:      true, // pager upcalls block under the map lock
		Recursive:  true, // vm_map_pageable's recursive hold (Section 7.1)
		ReaderBias: true,
		Name:       "vm.map",
		Class:      classMap,
	})
	m.refs.Init(1)
	m.refs.SetClass(classMapRef)
	m.refLock.InitWith(splock.Opts{Class: classMapRef, Name: "vm.map.ref"})
	classMapRef.CensusInc() // maps passively vanish; census out in Release
	return m
}

// SetFetcher installs the pager upcall.
func (m *Map) SetFetcher(f Fetcher) { m.fetch = f }

// DebugLock exposes the map's complex lock for debugging tools (naming it
// in the deadlock tracker). Operating on the lock directly bypasses the
// map's protocol; tools must only observe.
func (m *Map) DebugLock() *cxlock.Lock { return &m.lock }

// Reference clones a reference to the map.
func (m *Map) Reference() {
	m.refLock.Lock()
	m.refs.Clone()
	m.refLock.Unlock()
}

// Release drops a reference; the last one tears the map down, releasing
// each entry's object reference (which may terminate the objects and free
// their pages).
func (m *Map) Release(t *sched.Thread) {
	m.refLock.Lock()
	//machvet:allow holdblock — decrement under the map's own ref lock is the release protocol; the blocking teardown runs after Unlock
	last := m.refs.Release()
	m.refLock.Unlock()
	if !last {
		return
	}
	classMapRef.CensusDec()
	m.lock.Write(t)
	entries := m.entries
	m.entries = nil
	m.lock.Done(t)
	for _, e := range entries {
		e.object.Release(t)
	}
}

// Allocate inserts a region [start, start+npages) backed by obj at page
// offset objOffset, cloning a reference to obj for the entry. The paper's
// lock-ordering convention ("always lock the memory map before the memory
// object") is followed throughout the package.
func (m *Map) Allocate(t *sched.Thread, start, npages uint64, obj *Object, objOffset uint64) error {
	if npages == 0 {
		return fmt.Errorf("vm: zero-length allocation")
	}
	end := start + npages
	m.lock.Write(t)
	defer m.lock.Done(t)
	idx := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].start >= end })
	if idx > 0 && m.entries[idx-1].end > start {
		return ErrOverlap
	}
	obj.Reference()
	e := &Entry{start: start, end: end, object: obj, offset: objOffset}
	m.entries = append(m.entries, nil)
	copy(m.entries[idx+1:], m.entries[idx:])
	m.entries[idx] = e
	return nil
}

// Deallocate removes the entry starting exactly at start, releasing its
// object reference. Wired or in-transition entries cannot be deallocated.
func (m *Map) Deallocate(t *sched.Thread, start uint64) error {
	m.lock.Write(t)
	var victim *Entry
	for i, e := range m.entries {
		if e.start == start {
			if e.wired > 0 || e.inTransition {
				m.lock.Done(t)
				return fmt.Errorf("vm: entry at %d is wired", start)
			}
			victim = e
			m.entries = append(m.entries[:i], m.entries[i+1:]...)
			break
		}
	}
	m.lock.Done(t)
	if victim == nil {
		return ErrNoEntry
	}
	victim.object.Release(t)
	return nil
}

// findEntry locates the entry covering va; map lock held (any mode).
func (m *Map) findEntry(va uint64) *Entry {
	idx := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].end > va })
	if idx < len(m.entries) && m.entries[idx].start <= va {
		return m.entries[idx]
	}
	return nil
}

// Entries returns a snapshot of the entry list (for tests and tools).
func (m *Map) Entries(t *sched.Thread) []*Entry {
	m.lock.Read(t)
	defer m.lock.Done(t)
	out := make([]*Entry, len(m.entries))
	copy(out, m.entries)
	return out
}

// Faults returns the number of page faults handled.
func (m *Map) Faults() int64 { return m.faults.Load() }

// ShortageWaits returns how many faults had to wait for free memory.
func (m *Map) ShortageWaits() int64 { return m.shortWait.Load() }

// Fault resolves a page fault at va, bringing the page resident (and
// wiring it if wire is set). The protocol follows Mach's fault handler:
//
//   - take the map lock for reading (a recursive holder's read bypasses
//     pending writers, which is what lets vm_map_pageable call this with
//     the lock held recursively);
//   - under one hold of the object lock, refuse a terminating object and
//     look the page up. A resident hit finishes in that hold and takes no
//     paging count: the map read hold pins the entry, and the entry's
//     reference pins the object, so termination cannot begin under it;
//   - busy pages are waited for and the whole fault retried;
//   - only a miss registers paging in progress (Section 8's dual count),
//     in the same hold that inserts the busy placeholder, so the object's
//     last release waits for the fill before it frees pages;
//   - on memory shortage the fault "drops its lock to wait for memory" —
//     the exact behaviour that deadlocks under a recursive hold, since
//     only this fault's own hold is dropped, not the outer one.
func (m *Map) Fault(t *sched.Thread, va uint64, wire bool) error {
	defer trace.BeginSpan(t, opFault).End()
	for {
		m.lock.Read(t)
		e := m.findEntry(va)
		if e == nil {
			m.lock.Done(t)
			return ErrNoEntry
		}
		obj := e.object
		off := e.offset + (va - e.start)

		obj.lock.Lock()
		if obj.terminating {
			obj.lock.Unlock()
			m.lock.Done(t)
			return ErrTerminating
		}
		if pg, ok := obj.lookupPage(off); ok {
			if pg.busy {
				// Another fault is filling this page: wait for it
				// and retry from the top (pointers cannot be
				// cached across the unlock).
				pg.wanted = true
				sched.AssertWait(t, sched.Event(pg))
				obj.lock.Unlock()
				m.lock.Done(t)
				sched.ThreadBlock(t)
				continue
			}
			if wire {
				pg.wired = true
			}
			obj.lock.Unlock()
			m.faults.Add(1)
			m.lock.Done(t)
			return nil
		}
		// Not resident: register the paging operation and insert a busy
		// placeholder, then fill it.
		obj.pagingInProgress++
		pg := &Page{offset: off, busy: true, wired: wire}
		obj.pages[off] = pg
		obj.lock.Unlock()

		pa, ok := m.pool.TryAlloc()
		if !ok {
			// Memory shortage. Undo the placeholder, drop the map
			// lock, wait for memory, retry. With a recursive outer
			// hold this Done releases only the inner acquisition:
			// the map stays read-locked while we sleep — the
			// Section 7.1 deadlock ingredient.
			obj.lock.Lock()
			delete(obj.pages, off)
			wanted := pg.wanted
			obj.lock.Unlock()
			if wanted {
				sched.ThreadWakeup(sched.Event(pg))
			}
			obj.PagingEnd()
			m.shortWait.Add(1)
			m.lock.Done(t)
			m.pool.WaitForPages(t)
			continue
		}

		// Fill: from the pager if one is installed (may block — legal
		// under the sleepable map lock), else zero-fill.
		var data []byte
		if m.fetch != nil {
			data = m.fetch(t, obj, off)
		}
		obj.lock.Lock()
		pg.pa = pa
		pg.data = data
		pg.busy = false
		wanted := pg.wanted
		pg.wanted = false
		obj.lock.Unlock()
		if wanted {
			sched.ThreadWakeup(sched.Event(pg))
		}
		obj.PagingEnd()
		m.faults.Add(1)
		m.lock.Done(t)
		return nil
	}
}

// ReclaimPages frees up to max unwired, non-busy resident pages from the
// map's objects, returning the number freed. It requires the map lock for
// writing — which is why a pageout daemon blocks behind vm_map_pageable's
// outstanding recursive read hold in the Section 7.1 deadlock.
func (m *Map) ReclaimPages(t *sched.Thread, max int) int {
	m.lock.Write(t)
	defer m.lock.Done(t)
	freed := 0
	for _, e := range m.entries {
		if freed >= max {
			break
		}
		o := e.object
		o.lock.Lock()
		for off, pg := range o.pages {
			if freed >= max {
				break
			}
			if pg.busy || pg.wired {
				continue
			}
			delete(o.pages, off)
			m.pool.Free(pg.pa)
			freed++
		}
		o.lock.Unlock()
	}
	return freed
}
