package machlock_test

import (
	"errors"
	"sync"
	"testing"

	"machlock"
	"machlock/internal/trace"
)

// TestQuickstart mirrors the package-documentation example.
func TestQuickstart(t *testing.T) {
	var lock machlock.SimpleLock
	lock.Lock()
	lock.Unlock()

	rw := machlock.NewLock(machlock.WithSleep())
	worker := machlock.Go("worker", func(self *machlock.Thread) {
		rw.Read(self)
		defer rw.Done(self)
	})
	worker.Join()
}

func TestPublicSimpleMutexImplementations(t *testing.T) {
	for _, m := range []machlock.SimpleMutex{&machlock.SimpleLock{}, machlock.NoopLock{}} {
		m.Lock()
		m.Unlock()
		if !m.TryLock() {
			t.Fatal("TryLock failed on free lock")
		}
		m.Unlock()
	}
}

func TestPublicCheckedLock(t *testing.T) {
	l := machlock.NewCheckedLock("public")
	th := machlock.NewThread("t")
	l.Lock(th)
	if l.HolderName() != "t" {
		t.Fatal("holder not tracked")
	}
	l.Unlock(th)
}

func TestPublicComplexLockProtocols(t *testing.T) {
	l := machlock.NewLock()
	th := machlock.NewThread("t")
	l.Read(th)
	if failed := l.ReadToWrite(th); failed {
		t.Fatal("solo upgrade failed")
	}
	l.WriteToRead(th)
	l.Done(th)
	s := l.Stats()
	if s.Upgrades != 1 || s.Downgrades != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPublicRefCountAndObject(t *testing.T) {
	var rc machlock.RefCount
	rc.Init(1)
	rc.Clone()
	if rc.Release() {
		t.Fatal("premature zero")
	}
	if !rc.Release() {
		t.Fatal("no zero at end")
	}

	var arc machlock.AtomicRefCount
	arc.Init(1)
	arc.Clone()
	arc.Release()
	if !arc.Release() {
		t.Fatal("atomic count did not zero")
	}

	var obj machlock.KernelObject
	obj.Init("thing")
	obj.Lock()
	if err := obj.CheckActive(); err != nil {
		t.Fatal(err)
	}
	obj.Deactivate()
	err := obj.CheckActive()
	obj.Unlock()
	if !errors.Is(err, machlock.ErrDeactivated) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicEventWait(t *testing.T) {
	ev := new(int)
	th := machlock.NewThread("t")
	machlock.AssertWait(th, ev)
	if n := machlock.ThreadWakeup(ev); n != 1 {
		t.Fatalf("woke %d", n)
	}
	if r := machlock.ThreadBlock(th); r != machlock.NotWaiting {
		t.Fatalf("result = %v", r)
	}

	machlock.AssertWait(th, nil)
	if !machlock.ClearWait(th) {
		t.Fatal("ClearWait failed")
	}
	if r := machlock.ThreadBlock(th); r != machlock.NotWaiting {
		t.Fatalf("result = %v", r)
	}

	var mu sync.Mutex
	mu.Lock()
	sleeper := machlock.Go("s", func(self *machlock.Thread) {
		machlock.ThreadSleep(self, ev, mu.Unlock)
	})
	mu.Lock()
	machlock.ThreadWakeupOne(ev)
	mu.Unlock()
	sleeper.Join()
}

func TestPublicClassLock(t *testing.T) {
	l := machlock.NewClassLock()
	a, b := machlock.NewThread("a"), machlock.NewThread("b")
	l.Acquire(machlock.ForwardClass, a)
	if l.TryAcquire(machlock.ReverseClass, b) {
		t.Fatal("reverse class admitted while forward held")
	}
	if !l.TryAcquire(machlock.ForwardClass, b) {
		t.Fatal("forward class refused to share")
	}
	l.Release(machlock.ForwardClass, a)
	l.Release(machlock.ForwardClass, b)
	l.Acquire(machlock.ReverseClass, b)
	l.Release(machlock.ReverseClass, b)
}

// TestPublicSimpleLockClassStats: a simple lock's statistics are its
// class's (Appendix A.1's statistics structure): build it WithClass and
// read the class's Snapshot.
func TestPublicSimpleLockClassStats(t *testing.T) {
	if !trace.Enabled() {
		trace.Enable()
		defer trace.Disable()
	}
	cl := trace.NewClass("machlock_test", t.Name(), trace.KindSpin)
	l := machlock.NewSimpleLock(machlock.WithClass(cl), machlock.WithName("public"))
	l.Lock()
	l.Unlock()
	if p := cl.Snapshot(); p.Acquisitions != 1 || p.Releases != 1 || p.Contended != 0 {
		t.Fatalf("profile = %+v", p)
	}
}
