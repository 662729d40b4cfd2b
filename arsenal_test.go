package machlock_test

import (
	"sync"
	"testing"

	"machlock"
)

// Facade tests for the NewSimpleLock/NewLock option plumbing.

// TestSimpleLockAlgorithms: the host's one simple-lock algorithm
// (TAS+TTAS, subtest "default") built through the facade must behave as a
// mutex and keep its name.
func TestSimpleLockAlgorithms(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		l := machlock.NewSimpleLock(machlock.WithName("facade.default"))
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
			t.Fatalf("lost updates: n=%d, want 4000", n)
		}
		if l.Name() != "facade.default" {
			t.Fatalf("WithName did not stick: %q", l.Name())
		}
	})
}

// TestWithSpinThenParkImpliesSleep: on a complex lock the option implies
// Sleep.
func TestWithSpinThenParkImpliesSleep(t *testing.T) {
	cl := machlock.NewLock(machlock.WithSpinThenPark(32))
	if !cl.CanSleep() {
		t.Fatal("WithSpinThenPark complex lock cannot sleep (parking is sleeping)")
	}
}
