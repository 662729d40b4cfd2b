// Package vm implements the machine-independent virtual memory substrate
// the paper's examples live in: memory maps protected by sleepable complex
// locks, memory objects with the dual reference counts of Section 8, the
// pager-port customized lock of Section 5, the fault path, and both the
// recursive-lock vm_map_pageable the paper criticizes (Section 7.1) and
// the rewritten version that replaced it.
package vm

import (
	"errors"

	"machlock/internal/core/splock"
	"machlock/internal/sched"
)

// Errors returned by VM operations.
var (
	ErrNoEntry     = errors.New("vm: no map entry covers address")
	ErrTerminating = errors.New("vm: memory object is terminating")
	ErrOverlap     = errors.New("vm: entry overlaps existing allocation")
	ErrDeadlock    = errors.New("vm: wire operation deadlocked (recursive lock)")
)

// Page is one resident page of a memory object. Its fields are protected
// by the owning object's lock. busy marks a page mid-fill: other faulters
// set wanted and sleep on the page.
type Page struct {
	offset uint64
	pa     uint64
	busy   bool
	wanted bool
	wired  bool
	data   []byte
}

// PA returns the physical page backing this page.
func (p *Page) PA() uint64 { return p.pa }

// Wired reports whether the page is wired (non-pageable).
func (p *Page) Wired() bool { return p.wired }

// Data returns the page contents (nil for untouched zero-fill pages).
func (p *Page) Data() []byte { return p.data }

// PagePool is the free physical page pool. Allocation never blocks by
// itself; callers that find the pool empty use WaitForPages — releasing
// their locks first per the paper's shortage protocol — and retry.
type PagePool struct {
	lock    splock.Lock
	free    []uint64
	total   int
	waiting bool

	allocs    int64
	frees     int64
	shortages int64
}

// NewPool creates a pool of npages physical pages numbered 0..npages-1.
func NewPool(npages int) *PagePool {
	p := &PagePool{total: npages}
	p.lock.InitWith(splock.Opts{Name: "vm.pagepool"})
	p.free = make([]uint64, npages)
	for i := range p.free {
		p.free[i] = uint64(i)
	}
	return p
}

// TryAlloc grabs a free page, returning ok=false on shortage.
func (p *PagePool) TryAlloc() (pa uint64, ok bool) {
	p.lock.Lock()
	defer p.lock.Unlock()
	if len(p.free) == 0 {
		p.shortages++
		return 0, false
	}
	pa = p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.allocs++
	return pa, true
}

// Free returns a page to the pool and wakes any shortage waiters.
func (p *PagePool) Free(pa uint64) {
	p.lock.Lock()
	p.free = append(p.free, pa)
	p.frees++
	wake := p.waiting
	p.waiting = false
	p.lock.Unlock()
	if wake {
		sched.ThreadWakeup(sched.Event(p))
	}
}

// WaitForPages blocks t until a page is freed. The caller must hold no
// locks (the fault path drops the map lock before waiting — the exact step
// that interacts so badly with recursive locks in Section 7.1).
func (p *PagePool) WaitForPages(t *sched.Thread) {
	p.lock.Lock()
	if len(p.free) > 0 {
		p.lock.Unlock()
		return
	}
	p.waiting = true
	sched.ThreadSleep(t, sched.Event(p), func() { p.lock.Unlock() })
}

// FreeCount returns the number of free pages.
func (p *PagePool) FreeCount() int {
	p.lock.Lock()
	defer p.lock.Unlock()
	return len(p.free)
}

// Total returns the pool's size.
func (p *PagePool) Total() int { return p.total }

// Shortages returns how many allocations failed for lack of memory.
func (p *PagePool) Shortages() int64 {
	p.lock.Lock()
	defer p.lock.Unlock()
	return p.shortages
}

// EmergencyAdd grows the pool by n fresh pages (numbered beyond the
// original range) and wakes waiters. Used by the deadlock demonstrations
// to resolve an induced deadlock so the process can report it.
func (p *PagePool) EmergencyAdd(n int) {
	p.lock.Lock()
	for i := 0; i < n; i++ {
		p.free = append(p.free, uint64(p.total+i))
	}
	p.total += n
	p.waiting = false
	p.lock.Unlock()
	sched.ThreadWakeup(sched.Event(p))
}
