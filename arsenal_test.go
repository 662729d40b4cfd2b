package machlock_test

import (
	"sync"
	"testing"

	"machlock"
)

// Facade tests for the acquisition algorithms: the Algorithm enum and the
// NewSimpleLock/NewLock option plumbing.

// TestSimpleLockAlgorithms: every algorithm built through the facade must
// behave as a mutex from the facade's perspective.
func TestSimpleLockAlgorithms(t *testing.T) {
	for _, a := range machlock.Algorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			l := machlock.NewSimpleLock(
				machlock.WithAlgorithm(a),
				machlock.WithName("facade."+a.String()),
			)
			n := 0
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						l.Lock()
						n++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if n != 4000 {
				t.Fatalf("algorithm %v lost updates: n=%d, want 4000", a, n)
			}
			if l.Name() != "facade."+a.String() {
				t.Fatalf("WithName did not stick: %q", l.Name())
			}
		})
	}
}

// TestWithSpinThenParkImpliesSleep: on a complex lock the option implies
// Sleep.
func TestWithSpinThenParkImpliesSleep(t *testing.T) {
	cl := machlock.NewLock(machlock.WithSpinThenPark(32))
	if !cl.CanSleep() {
		t.Fatal("WithSpinThenPark complex lock cannot sleep (parking is sleeping)")
	}
}

// TestAlgorithmStrings pins the report labels the shootout and lockstat
// sweeps key on.
func TestAlgorithmStrings(t *testing.T) {
	want := map[machlock.Algorithm]string{
		machlock.Default: "default",
		machlock.Queue:   "queue",
	}
	for a, s := range want {
		if a.String() != s {
			t.Fatalf("Algorithm(%d).String() = %q, want %q", int(a), a.String(), s)
		}
	}
}
