package vm

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

func join(t *testing.T, what string, threads ...*sched.Thread) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		for _, th := range threads {
			th.Join()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(3)
	if p.Total() != 3 || p.FreeCount() != 3 {
		t.Fatalf("fresh pool: total=%d free=%d", p.Total(), p.FreeCount())
	}
	seen := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		pa, ok := p.TryAlloc()
		if !ok || seen[pa] {
			t.Fatalf("alloc %d: ok=%v pa=%d", i, ok, pa)
		}
		seen[pa] = true
	}
	if _, ok := p.TryAlloc(); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
	if p.Shortages() != 1 {
		t.Fatalf("shortages = %d", p.Shortages())
	}
	p.Free(0)
	if pa, ok := p.TryAlloc(); !ok || pa != 0 {
		t.Fatalf("re-alloc after free: %d %v", pa, ok)
	}
}

func TestPoolWaitForPages(t *testing.T) {
	p := NewPool(1)
	pa, _ := p.TryAlloc()
	waiter := sched.Go("w", func(self *sched.Thread) {
		p.WaitForPages(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for waiter.Blocks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	p.Free(pa)
	join(t, "pool waiter", waiter)
}

func TestPoolWaitWhenPagesAvailableReturnsImmediately(t *testing.T) {
	p := NewPool(1)
	th := sched.New("t")
	p.WaitForPages(th) // must not block
	if th.Blocks() != 0 {
		t.Fatal("waiter blocked with pages available")
	}
}

func TestObjectDualCounts(t *testing.T) {
	pool := NewPool(8)
	o := NewObject(pool, 4)
	if err := o.PagingBegin(); err != nil {
		t.Fatal(err)
	}
	if o.PagingInProgress() != 1 {
		t.Fatalf("paging = %d", o.PagingInProgress())
	}
	// Termination (last release) must wait for the paging count.
	released := make(chan struct{})
	rel := sched.Go("rel", func(self *sched.Thread) {
		o.Release(self)
		close(released)
	})
	select {
	case <-released:
		t.Fatal("termination completed while paging in progress")
	case <-time.After(50 * time.Millisecond):
	}
	// New paging operations are excluded during termination.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := o.PagingBegin(); err != nil {
			if !errors.Is(err, ErrTerminating) {
				t.Fatalf("PagingBegin = %v", err)
			}
			break
		}
		// Terminator hasn't set the flag yet; undo and retry.
		o.PagingEnd()
		if time.Now().After(deadline) {
			t.Fatal("terminating flag never observed")
		}
		time.Sleep(time.Millisecond)
	}
	o.PagingEnd() // drain: termination proceeds
	join(t, "terminator", rel)
}

func TestObjectReleaseFreesPages(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	for va := uint64(0); va < 4; va++ {
		if err := m.Fault(th, va, false); err != nil {
			t.Fatal(err)
		}
	}
	if pool.FreeCount() != 0 {
		t.Fatalf("free = %d, want 0", pool.FreeCount())
	}
	o.Release(th) // creator ref; entry still holds one
	m.Release(th) // tears down entry → object terminates → pages freed
	if pool.FreeCount() != 4 {
		t.Fatalf("free after release = %d, want 4", pool.FreeCount())
	}
}

func TestPagingEndWithoutBeginPanics(t *testing.T) {
	o := NewObject(NewPool(1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	o.PagingEnd()
}

func TestEnsurePagerCreatesExactlyOnce(t *testing.T) {
	pool := NewPool(1)
	o := NewObject(pool, 1)
	var creations atomic.Int32
	gate := make(chan struct{})
	create := func() *ipc.Port {
		creations.Add(1)
		<-gate // creation blocks, as port allocation may
		return ipc.NewPort("pager")
	}
	results := make(chan *ipc.Port, 4)
	var threads []*sched.Thread
	for i := 0; i < 4; i++ {
		threads = append(threads, sched.Go("t", func(self *sched.Thread) {
			results <- o.EnsurePager(self, create)
		}))
	}
	time.Sleep(20 * time.Millisecond) // let waiters pile up on the flags
	close(gate)
	join(t, "pager creators", threads...)
	first := <-results
	for i := 1; i < 4; i++ {
		if p := <-results; p != first {
			t.Fatal("EnsurePager returned different ports")
		}
	}
	if creations.Load() != 1 {
		t.Fatalf("create ran %d times, want 1", creations.Load())
	}
	if o.Pager() != first {
		t.Fatal("Pager() disagrees")
	}
}

func TestMapAllocateOverlapRejected(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 8)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(th, 2, 4, o, 0); !errors.Is(err, ErrOverlap) {
		t.Fatalf("overlap = %v, want ErrOverlap", err)
	}
	if err := m.Allocate(th, 4, 4, o, 4); err != nil {
		t.Fatalf("adjacent allocation failed: %v", err)
	}
	if n := len(m.Entries(th)); n != 2 {
		t.Fatalf("entries = %d", n)
	}
}

func TestFaultZeroFillAndResidency(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	th := sched.New("t")
	if err := m.Allocate(th, 100, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Fault(th, 102, false); err != nil {
		t.Fatal(err)
	}
	if o.ResidentPages() != 1 {
		t.Fatalf("resident = %d", o.ResidentPages())
	}
	// Second fault on the same page is a soft fault: no new allocation.
	if err := m.Fault(th, 102, false); err != nil {
		t.Fatal(err)
	}
	if pool.FreeCount() != 3 {
		t.Fatalf("free = %d, want 3", pool.FreeCount())
	}
	if m.Faults() != 2 {
		t.Fatalf("faults = %d", m.Faults())
	}
}

func TestFaultNoEntry(t *testing.T) {
	m := NewMap(NewPool(1))
	th := sched.New("t")
	if err := m.Fault(th, 55, false); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("fault = %v, want ErrNoEntry", err)
	}
}

func TestFaultUsesFetcher(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	th := sched.New("t")
	m.SetFetcher(func(_ *sched.Thread, _ *Object, off uint64) []byte {
		return []byte{byte(off), 0xAB}
	})
	if err := m.Allocate(th, 0, 4, o, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Fault(th, 2, false); err != nil {
		t.Fatal(err)
	}
	o.lock.Lock()
	pg := o.pages[9] // entry offset 7 + (va 2 - start 0)
	o.lock.Unlock()
	if pg == nil || pg.Data()[0] != 9 || pg.Data()[1] != 0xAB {
		t.Fatalf("page data = %+v", pg)
	}
}

func TestConcurrentFaultsSamePageSingleFill(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	var fills atomic.Int32
	m.SetFetcher(func(*sched.Thread, *Object, uint64) []byte {
		fills.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the busy window
		return []byte{1}
	})
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	var threads []*sched.Thread
	for i := 0; i < 6; i++ {
		threads = append(threads, sched.Go("faulter", func(self *sched.Thread) {
			if err := m.Fault(self, 1, false); err != nil {
				t.Errorf("fault: %v", err)
			}
		}))
	}
	join(t, "concurrent faulters", threads...)
	if fills.Load() != 1 {
		t.Fatalf("page filled %d times, want 1 (busy protocol broken)", fills.Load())
	}
	if pool.FreeCount() != 7 {
		t.Fatalf("free = %d, want 7 (double allocation)", pool.FreeCount())
	}
}

// TestResidentFaultOneObjectHold: a resident hit checks terminating and
// looks the page up under a single hold of the object lock, with no paging
// count around it, so it adds exactly one vm.object acquisition.
func TestResidentFaultOneObjectHold(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	pool := NewPool(2)
	m := NewMap(pool)
	o := NewObject(pool, 2)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 2, o, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Fault(th, 1, false); err != nil { // the miss fills the page
		t.Fatal(err)
	}
	before := classObject.Snapshot()
	if err := m.Fault(th, 1, true); err != nil {
		t.Fatal(err)
	}
	after := classObject.Snapshot()
	if acq := after.Acquisitions - before.Acquisitions; acq != 1 {
		t.Fatalf("resident fault took the object lock %d times, want 1", acq)
	}
	if n := o.PagingInProgress(); n != 0 {
		t.Fatalf("paging count %d after a resident fault, want 0", n)
	}
	o.Release(th)
	m.Release(th)
}

// TestFaultMissHoldsPagingCount: only a miss takes the paging count, in the
// hold that inserts its busy placeholder, and the object's last release
// waits for that count to drain before it frees pages (Section 8's dual
// count). The map read hold keeps the entry's reference alive across a
// fill, so the test drops that reference itself, from outside the map, to
// put a last release inside the window the paging count guards.
func TestFaultMissHoldsPagingCount(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	inside, gate := make(chan int32, 1), make(chan struct{})
	m.SetFetcher(func(_ *sched.Thread, obj *Object, _ uint64) []byte {
		inside <- obj.PagingInProgress()
		<-gate
		return []byte{1}
	})
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	faulter := sched.Go("faulter", func(self *sched.Thread) {
		if err := m.Fault(self, 1, false); err != nil {
			t.Errorf("fault: %v", err)
		}
	})
	if n := <-inside; n != 1 {
		t.Fatalf("paging count inside the fill = %d, want 1", n)
	}
	released := make(chan struct{})
	terminator := sched.Go("terminator", func(self *sched.Thread) {
		o.Release(self) // the creator's reference
		o.Release(self) // the entry's: the last, so termination begins
		close(released)
	})
	select {
	case <-released:
		t.Fatal("termination completed while a miss was filling")
	case <-time.After(50 * time.Millisecond):
	}
	if free := pool.FreeCount(); free != 3 {
		t.Fatalf("free = %d during the fill, want 3", free)
	}
	close(gate)
	join(t, "faulter and terminator", faulter, terminator)
	if free := pool.FreeCount(); free != 4 {
		t.Fatalf("free = %d after termination, want 4 (filled page not freed)", free)
	}
	// The entry's reference is gone: detach the entry so the map's own
	// release does not drop it a second time.
	m.lock.Write(boss)
	m.entries = nil
	m.lock.Done(boss)
	m.Release(boss)
}

func TestFaultShortageWaitsAndResumes(t *testing.T) {
	pool := NewPool(1)
	m := NewMap(pool)
	o := NewObject(pool, 4)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	pa, _ := pool.TryAlloc() // drain the pool
	faulter := sched.Go("faulter", func(self *sched.Thread) {
		if err := m.Fault(self, 0, false); err != nil {
			t.Errorf("fault: %v", err)
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for m.ShortageWaits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fault never hit the shortage path")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Free(pa)
	join(t, "shortage faulter", faulter)
	if o.ResidentPages() != 1 {
		t.Fatal("page not resident after shortage resolved")
	}
}

func TestWireAndUnwire(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 8)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Wire(th, 0, 4); err != nil {
		t.Fatal(err)
	}
	if o.ResidentPages() != 4 {
		t.Fatalf("resident = %d", o.ResidentPages())
	}
	// Wired pages are not reclaimable.
	if n := m.ReclaimPages(th, 10); n != 0 {
		t.Fatalf("reclaimed %d wired pages", n)
	}
	if err := m.Unwire(th, 0, 4); err != nil {
		t.Fatal(err)
	}
	if n := m.ReclaimPages(th, 10); n != 4 {
		t.Fatalf("reclaimed %d, want 4 after unwire", n)
	}
	if pool.FreeCount() != 8 {
		t.Fatalf("free = %d, want 8", pool.FreeCount())
	}
}

func TestWireRecursiveSucceedsWithEnoughMemory(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 8)
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, o, 0); err != nil {
		t.Fatal(err)
	}
	w := sched.Go("wire", func(self *sched.Thread) {
		if err := m.WireRecursive(self, 0, 4); err != nil {
			t.Errorf("WireRecursive: %v", err)
		}
	})
	join(t, "recursive wire", w)
	if o.ResidentPages() != 4 {
		t.Fatalf("resident = %d", o.ResidentPages())
	}
	ents := m.Entries(boss)
	if len(ents) != 1 || ents[0].WireCount() != 1 {
		t.Fatalf("entries = %+v", ents)
	}
}

func TestWireRangeErrors(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 8)
	th := sched.New("t")
	if err := m.Allocate(th, 0, 2, o, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Wire(th, 0, 0); err == nil {
		t.Fatal("empty range accepted")
	}
	if err := m.Wire(th, 0, 4); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("uncovered range = %v, want ErrNoEntry", err)
	}
	if err := m.Unwire(th, 0, 2); err == nil {
		t.Fatal("unwire of unwired entry accepted")
	}
}

func TestDeallocateWiredRefused(t *testing.T) {
	pool := NewPool(8)
	m := NewMap(pool)
	o := NewObject(pool, 8)
	th := sched.New("t")
	m.Allocate(th, 0, 2, o, 0)
	if err := m.Wire(th, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Deallocate(th, 0); err == nil {
		t.Fatal("deallocate of wired entry accepted")
	}
	m.Unwire(th, 0, 2)
	if err := m.Deallocate(th, 0); err != nil {
		t.Fatal(err)
	}
}

// TestSection71DeadlockRecursive reproduces the paper's vm_map_pageable
// deadlock: WireRecursive holds a recursive read lock on the map while a
// fault inside it waits for memory; the pageout daemon needs the map's
// write lock to free memory; nothing can proceed. The test detects the
// deadlock (no progress), then resolves it by adding emergency pages so
// everything can be torn down.
func TestSection71DeadlockRecursive(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	hog := NewObject(pool, 4)    // entry B: consumes all memory, unwired
	target := NewObject(pool, 4) // entry A: to be wired
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, hog, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(boss, 10, 4, target, 0); err != nil {
		t.Fatal(err)
	}
	for va := uint64(0); va < 4; va++ {
		if err := m.Fault(boss, va, false); err != nil {
			t.Fatal(err)
		}
	}
	if pool.FreeCount() != 0 {
		t.Fatal("setup: pool should be exhausted")
	}

	// The daemon is started only after the wire hits the shortage, so the
	// interleaving is deterministic: the recursive read hold is already in
	// place when the daemon first tries for the write lock.
	pd := NewPageout(pool)
	pd.AddMap(m)
	defer pd.Stop()

	wireDone := make(chan struct{})
	wirer := sched.Go("wirer", func(self *sched.Thread) {
		if err := m.WireRecursive(self, 10, 14); err != nil {
			t.Errorf("WireRecursive: %v", err)
		}
		close(wireDone)
	})

	// The wire must hit the shortage and stall; the daemon must be unable
	// to reclaim the hog's 4 unwired pages because the write lock is
	// unavailable.
	deadline := time.Now().Add(5 * time.Second)
	for m.ShortageWaits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wire never hit the shortage path")
		}
		time.Sleep(time.Millisecond)
	}
	pd.Start()
	time.Sleep(200 * time.Millisecond) // give the daemon every chance
	select {
	case <-wireDone:
		t.Fatal("recursive wire completed; deadlock not reproduced")
	default:
	}
	if pd.Reclaims() != 0 {
		t.Fatalf("daemon reclaimed %d pages through the recursive hold", pd.Reclaims())
	}

	// Resolve: inject memory, as cmd/deadlockdemo does to report cleanly.
	pool.EmergencyAdd(4)
	join(t, "wirer after emergency", wirer)
	<-wireDone
}

// TestSection71RewriteAvoidsDeadlock runs the identical scenario against
// the rewritten Wire: the pageout daemon can take the write lock between
// faults, reclaims the hog's pages, and the wire completes with no
// emergency memory.
func TestSection71RewriteAvoidsDeadlock(t *testing.T) {
	pool := NewPool(4)
	m := NewMap(pool)
	hog := NewObject(pool, 4)
	target := NewObject(pool, 4)
	boss := sched.New("boss")
	if err := m.Allocate(boss, 0, 4, hog, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Allocate(boss, 10, 4, target, 0); err != nil {
		t.Fatal(err)
	}
	for va := uint64(0); va < 4; va++ {
		if err := m.Fault(boss, va, false); err != nil {
			t.Fatal(err)
		}
	}

	pd := NewPageout(pool)
	pd.AddMap(m)
	pd.Start()
	defer pd.Stop()

	wirer := sched.Go("wirer", func(self *sched.Thread) {
		if err := m.Wire(self, 10, 14); err != nil {
			t.Errorf("Wire: %v", err)
		}
	})
	join(t, "rewritten wire under memory pressure", wirer)
	if pd.Reclaims() == 0 {
		t.Fatal("daemon never reclaimed (scenario did not exercise pressure)")
	}
	if target.ResidentPages() != 4 {
		t.Fatalf("wired pages resident = %d", target.ResidentPages())
	}
}
