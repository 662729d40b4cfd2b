package splock

import (
	"strings"
	"sync"
	"testing"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

func TestCheckedBasic(t *testing.T) {
	l := NewChecked("task")
	th := sched.New("t1")
	l.Lock(th)
	if got := l.HolderName(); got != "t1" {
		t.Fatalf("holder = %q, want t1", got)
	}
	if th.SpinLocksHeld() != 1 {
		t.Fatalf("spin locks held = %d, want 1", th.SpinLocksHeld())
	}
	l.Unlock(th)
	if l.HolderName() != "" {
		t.Fatal("holder not cleared after unlock")
	}
	if th.SpinLocksHeld() != 0 {
		t.Fatal("spin count not decremented")
	}
}

func TestCheckedSelfDeadlockPanics(t *testing.T) {
	l := NewChecked("x")
	th := sched.New("t")
	l.Lock(th)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("recursive simple_lock did not panic")
		}
		if !strings.Contains(r.(string), "self-deadlock") {
			t.Fatalf("panic = %v", r)
		}
		l.Unlock(th)
	}()
	l.Lock(th)
}

func TestCheckedUnlockByNonHolderPanics(t *testing.T) {
	l := NewChecked("x")
	a, b := sched.New("a"), sched.New("b")
	l.Lock(a)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-holder did not panic")
		}
		l.Unlock(a)
	}()
	l.Unlock(b)
}

func TestCheckedNilHolderPanics(t *testing.T) {
	l := NewChecked("x")
	defer func() {
		if recover() == nil {
			t.Fatal("nil holder did not panic")
		}
	}()
	l.Lock(nil)
}

func TestCheckedTryLock(t *testing.T) {
	l := NewChecked("x")
	a, b := sched.New("a"), sched.New("b")
	if !l.TryLock(a) {
		t.Fatal("TryLock failed on free lock")
	}
	if l.TryLock(b) {
		t.Fatal("TryLock succeeded on held lock")
	}
	l.Unlock(a)
}

func TestCheckedBlocksWhileHeldPanicsViaSched(t *testing.T) {
	// The paper's fatal rule: may not block holding a simple lock.
	l := NewChecked("x")
	th := sched.New("t")
	l.Lock(th)
	defer func() {
		if recover() == nil {
			t.Fatal("thread_block while holding checked lock did not panic")
		}
		l.Unlock(th)
	}()
	sched.AssertWait(th, new(int))
	sched.ThreadBlock(th)
}

// TestCheckedContentionCounter: a checked lock's statistics are its
// class's, counted by the inner lock like any classed spin lock's.
func TestCheckedContentionCounter(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	l := NewChecked(t.Name())
	c := trace.Lookup("splock", t.Name())
	before := c.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := sched.New("w")
			for j := 0; j < 200; j++ {
				l.Lock(th)
				l.Unlock(th)
			}
		}(i)
	}
	wg.Wait()
	after := c.Snapshot()
	if n := after.Acquisitions - before.Acquisitions; n != 800 {
		t.Fatalf("class acquisitions = %d, want 800", n)
	}
	if n := after.Releases - before.Releases; n != 800 {
		t.Fatalf("class releases = %d, want 800", n)
	}
}

func TestHierarchyDetectsViolation(t *testing.T) {
	h := NewHierarchy(false)
	mapLock := h.NewOrdered("vm_map", 10)
	objLock := h.NewOrdered("vm_object", 20)
	th := sched.New("t")

	// Correct order: map before object.
	mapLock.Lock(th)
	objLock.Lock(th)
	objLock.Unlock(th)
	mapLock.Unlock(th)
	if h.Violations() != 0 {
		t.Fatalf("violations after correct order = %d", h.Violations())
	}

	// Wrong order: object before map.
	objLock.Lock(th)
	mapLock.Lock(th)
	if h.Violations() != 1 {
		t.Fatalf("violations after wrong order = %d, want 1", h.Violations())
	}
	if !strings.Contains(h.LastViolation(), "vm_map") {
		t.Fatalf("violation report %q missing lock name", h.LastViolation())
	}
	mapLock.Unlock(th)
	objLock.Unlock(th)
}

func TestHierarchyFatalPanics(t *testing.T) {
	h := NewHierarchy(true)
	a := h.NewOrdered("a", 2)
	b := h.NewOrdered("b", 1)
	th := sched.New("t")
	a.Lock(th)
	defer func() {
		if recover() == nil {
			t.Fatal("fatal hierarchy violation did not panic")
		}
		a.Unlock(th)
	}()
	b.Lock(th)
}

func TestHierarchyTryLockNeverViolates(t *testing.T) {
	// Single attempts against the order are the legitimate backout
	// protocol and must not count as violations.
	h := NewHierarchy(false)
	a := h.NewOrdered("a", 2)
	b := h.NewOrdered("b", 1)
	th := sched.New("t")
	a.Lock(th)
	if !b.TryLock(th) {
		t.Fatal("TryLock failed on free lock")
	}
	if h.Violations() != 0 {
		t.Fatalf("TryLock counted as violation: %d", h.Violations())
	}
	b.Unlock(th)
	a.Unlock(th)
}

func TestLockPairAddressOrder(t *testing.T) {
	h := NewHierarchy(true)
	a := h.NewOrdered("task-a", 5)
	b := h.NewOrdered("task-b", 5)
	th1, th2 := sched.New("t1"), sched.New("t2")

	// Concurrent LockPair in both argument orders must not deadlock.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(th *sched.Thread, first, second *OrderedLock) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				LockPair(th, first, second)
				second.Unlock(th)
				first.Unlock(th)
			}
		}(map[int]*sched.Thread{0: th1, 1: th2}[i],
			map[int]*OrderedLock{0: a, 1: b}[i],
			map[int]*OrderedLock{0: b, 1: a}[i])
	}
	wg.Wait()
}

func TestLockPairValidation(t *testing.T) {
	h := NewHierarchy(false)
	a := h.NewOrdered("a", 1)
	c := h.NewOrdered("c", 2)
	th := sched.New("t")
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"identical", func() { LockPair(th, a, a) }},
		{"ranks", func() { LockPair(th, a, c) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LockPair %s did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
