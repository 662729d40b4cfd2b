package splock

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"machlock/internal/trace"
)

// arsenalPolicies are the non-default algorithms under test; the default
// TASTTAS path has its own suite in splock_test.go. Queue is the one the
// production Lock builds; the rest are SimLock-only, and their rows check
// that the production constructors refuse them.
var arsenalPolicies = []Policy{TAS, TTAS, TCLEAR, Queue, Cohort, Adaptive}

// newOrRefused builds a production lock from o, or — for a SimLock-only
// policy — checks that construction panics with a message naming
// NewSimWith and returns nil.
func newOrRefused(t *testing.T, o Opts) *Lock {
	t.Helper()
	if o.Algorithm == Queue {
		return NewWith(o)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "NewSimWith") {
			t.Fatalf("NewWith(%v) did not refuse with a NewSimWith pointer: %q", o.Algorithm, msg)
		}
	}()
	NewWith(o)
	return nil
}

// TestAlgoMutualExclusionStress hammers each algorithm from 2×GOMAXPROCS
// goroutines; run under -race this is the data-race certification for the
// arsenal's handoff edges (grant stores / acquire loads must carry the
// happens-before for the protected counter).
func TestAlgoMutualExclusionStress(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l := newOrRefused(t, Opts{Algorithm: p})
			if l == nil {
				return
			}
			workers := 2 * runtime.GOMAXPROCS(0)
			const perWorker = 2000
			n := 0
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						l.Lock()
						n++
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if n != workers*perWorker {
				t.Fatalf("lost updates: n=%d, want %d", n, workers*perWorker)
			}
			if l.Locked() {
				t.Fatal("lock still reads held after all holders released")
			}
		})
	}
}

// TestAlgoTryLock: TryLock on the queue lock must fail against a holder,
// succeed on a free lock, and compose with Unlock.
func TestAlgoTryLock(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			l := newOrRefused(t, Opts{Algorithm: p})
			if l == nil {
				return
			}
			if !l.TryLock() {
				t.Fatal("TryLock failed on a free lock")
			}
			if l.TryLock() {
				t.Fatal("TryLock succeeded against a holder")
			}
			done := make(chan bool)
			go func() { done <- l.TryLock() }()
			if <-done {
				t.Fatal("TryLock from another goroutine succeeded against a holder")
			}
			l.Unlock()
			if !l.TryLock() {
				t.Fatal("TryLock failed after release")
			}
			l.Unlock()
		})
	}
}

// TestAlgoTryLockUnderChurn interleaves TryLock with blocking Lock on
// the queue lock: a trylock must never corrupt the queue state the
// blocking path depends on.
func TestAlgoTryLockUnderChurn(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l := newOrRefused(t, Opts{Algorithm: p})
			if l == nil {
				return
			}
			n := 0
			var tried, took int
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
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					tried++
					if l.TryLock() {
						took++
						n++
						l.Unlock()
					}
				}
			}()
			wg.Wait()
			if n != 4000+took {
				t.Fatalf("lost updates under trylock churn: n=%d, want %d", n, 4000+took)
			}
			_ = tried
		})
	}
}

// contendSlow holds the lock across a sleep so waiters reliably queue up
// behind the holder.
func contendSlow(l *Lock, workers, iters int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				time.Sleep(20 * time.Microsecond)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestAlgoTraceIntegration: a classed queue lock must feed the same
// contention accounting as the default path — contended acquisitions
// counted, waits measured, releases balanced — so the profile reports
// work unchanged across algorithms.
func TestAlgoTraceIntegration(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			trace.Enable()
			defer trace.Disable()
			c := trace.NewClass("splock", "algo."+p.String(), trace.KindSpin)
			l := newOrRefused(t, Opts{Algorithm: p, Class: c, Name: "algo." + p.String()})
			if l == nil {
				return
			}
			contendSlow(l, 4, 25)
			prof := c.Snapshot()
			if prof.Acquisitions == 0 {
				t.Fatal("classed arsenal lock recorded no acquisitions")
			}
			if prof.Releases != prof.Acquisitions {
				t.Fatalf("unbalanced accounting: %d acquisitions, %d releases",
					prof.Acquisitions, prof.Releases)
			}
			if prof.Contended == 0 {
				t.Fatalf("4 workers × 25 slow holds recorded no contention (%+v)", prof)
			}
		})
	}
}

// TestAlgoUnlockSanity: foreign/double unlock must panic on the arsenal
// paths exactly as on the default path.
func TestAlgoUnlockSanity(t *testing.T) {
	for _, p := range arsenalPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			l := newOrRefused(t, Opts{Algorithm: p})
			if l == nil {
				return
			}
			defer func() {
				if recover() == nil {
					t.Fatal("unlock of a free lock did not panic")
				}
			}()
			l.Unlock()
		})
	}
}

// TestNewWithZeroOptsIsDefault: the zero Opts must build a lock
// indistinguishable from the zero value (nil algo, default path).
func TestNewWithZeroOptsIsDefault(t *testing.T) {
	l := NewWith(Opts{})
	if l.Algorithm() != TASTTAS {
		t.Fatalf("zero Opts built %v, want TASTTAS", l.Algorithm())
	}
	l.Lock()
	if !l.Locked() {
		t.Fatal("default lock not held after Lock")
	}
	l.Unlock()
}
