package object

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func newObj(name string) *Object {
	o := &Object{}
	o.Init(name)
	return o
}

func TestInitCreatesActiveWithOneRef(t *testing.T) {
	o := newObj("task")
	o.Lock()
	if !o.Active() {
		t.Fatal("fresh object not active")
	}
	if o.Refs() != 1 {
		t.Fatalf("refs = %d, want 1 (creator's)", o.Refs())
	}
	if o.Name() != "task" {
		t.Fatalf("name = %q", o.Name())
	}
	o.Unlock()
}

func TestReferenceUnderLock(t *testing.T) {
	o := newObj("x")
	o.Lock()
	o.TakeRef()
	if o.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", o.Refs())
	}
	o.Unlock()
	if o.Release(nil) {
		t.Fatal("release with refs outstanding destroyed object")
	}
}

func TestTakeRefConvenience(t *testing.T) {
	o := newObj("x")
	o.TakeRef()
	o.Lock()
	if o.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", o.Refs())
	}
	o.Unlock()
}

func TestReleaseLastRunsDestroy(t *testing.T) {
	o := newObj("x")
	var destroyed atomic.Bool
	if !o.Release(func() { destroyed.Store(true) }) {
		t.Fatal("last release did not report destruction")
	}
	if !destroyed.Load() {
		t.Fatal("destroy hook not run")
	}
	if !o.Destroyed() {
		t.Fatal("Destroyed() false after destruction")
	}
}

func TestLockAfterDestroyPanics(t *testing.T) {
	o := newObj("x")
	o.Release(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("lock of destroyed object did not panic (use-after-free undetected)")
		}
	}()
	o.Lock()
}

func TestDeactivateExactlyOnce(t *testing.T) {
	o := newObj("x")
	o.Lock()
	if !o.Deactivate() {
		t.Fatal("first deactivate returned false")
	}
	if o.Deactivate() {
		t.Fatal("second deactivate returned true")
	}
	if o.Active() {
		t.Fatal("object still active after deactivate")
	}
	if err := o.CheckActive(); !errors.Is(err, ErrDeactivated) {
		t.Fatalf("CheckActive = %v, want ErrDeactivated", err)
	}
	o.Unlock()
}

func TestDeactivatedStructureSurvivesWhileReferenced(t *testing.T) {
	// Section 9: "The data structure will survive so long as there are
	// references to it" even after deactivation.
	o := newObj("task")
	o.TakeRef() // a second holder
	o.Lock()
	o.Deactivate()
	o.Unlock()
	if o.Release(nil) { // creator's ref: one remains
		t.Fatal("structure destroyed while referenced")
	}
	// The remaining holder can still lock and observe deactivation.
	o.Lock()
	if o.CheckActive() == nil {
		t.Fatal("deactivation not observed")
	}
	o.Unlock()
	if !o.Release(nil) {
		t.Fatal("final release did not destroy")
	}
}

func TestConcurrentTerminationsOneWinner(t *testing.T) {
	o := newObj("x")
	var winners atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.Lock()
			if o.Deactivate() {
				winners.Add(1)
			}
			o.Unlock()
		}()
	}
	wg.Wait()
	if winners.Load() != 1 {
		t.Fatalf("%d termination winners, want exactly 1", winners.Load())
	}
}

func TestConcurrentRefChurnNeverDestroysEarly(t *testing.T) {
	o := newObj("x")
	var destroyed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				o.TakeRef()
				if o.Release(func() { destroyed.Store(true) }) {
					t.Error("destroyed while creator reference held")
					return
				}
			}
		}()
	}
	wg.Wait()
	if destroyed.Load() {
		t.Fatal("object destroyed early")
	}
	if !o.Release(nil) {
		t.Fatal("final release did not destroy")
	}
}

func TestTryLock(t *testing.T) {
	o := newObj("x")
	o.Lock()
	if o.TryLock() {
		t.Fatal("TryLock succeeded on locked object")
	}
	o.Unlock()
	if !o.TryLock() {
		t.Fatal("TryLock failed on unlocked object")
	}
	o.Unlock()
}

// TestSection9RelockRecheckPattern exercises the canonical usage: an
// operation that unlocks and relocks must re-check liveness, and handles
// the deactivation race gracefully.
func TestSection9RelockRecheckPattern(t *testing.T) {
	o := newObj("x")
	start := make(chan struct{})
	opDone := make(chan error, 1)

	go func() {
		// The operation: lock, check, unlock (to do blocking work),
		// relock, re-check.
		o.Lock()
		if err := o.CheckActive(); err != nil {
			o.Unlock()
			opDone <- err
			return
		}
		o.Unlock()
		<-start // deactivation happens here, while unlocked
		o.Lock()
		err := o.CheckActive()
		o.Unlock()
		opDone <- err
	}()

	o.Lock()
	o.Deactivate()
	o.Unlock()
	close(start)
	if err := <-opDone; !errors.Is(err, ErrDeactivated) {
		t.Fatalf("operation result = %v, want ErrDeactivated (missed the re-check)", err)
	}
}
