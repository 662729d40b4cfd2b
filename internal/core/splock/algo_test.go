package splock

import (
	"runtime"
	"sync"
	"testing"

	"machlock/internal/hw"
)

// arsenalPolicies are the acquisition policies only SimLock runs; the
// production Lock's one policy, TASTTAS, has its own suite in
// splock_test.go and funnel_test.go.
var arsenalPolicies = []Policy{TAS, TTAS, TCLEAR, Queue, Cohort, Adaptive}

// newArsenal builds a SimLock of policy p on a four-CPU, two-cell machine,
// so Cohort has a remote cell to keep its handoffs away from.
func newArsenal(p Policy) (*SimLock, *hw.Machine) {
	m := hw.NewWithConfig(hw.Config{CPUs: 4, Cells: 2})
	return NewSimWith(SimOpts{Machine: m, Algorithm: p}), m
}

// TestAlgoMutualExclusionStress hammers each policy from one goroutine per
// simulated CPU; run under -race this is the data-race certification for
// the arsenal's handoff edges (grant stores / acquire loads must carry the
// happens-before for the protected counter). Every acquisition must be
// counted once.
func TestAlgoMutualExclusionStress(t *testing.T) {
	for _, p := range arsenalPolicies {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l, m := newArsenal(p)
			const perCPU = 500
			n := 0
			var wg sync.WaitGroup
			for i := 0; i < m.NCPU(); i++ {
				wg.Add(1)
				go func(c *hw.CPU) {
					defer wg.Done()
					for j := 0; j < perCPU; j++ {
						l.Lock(c)
						n++
						l.Unlock(c)
					}
				}(m.CPU(i))
			}
			wg.Wait()
			want := m.NCPU() * perCPU
			if n != want {
				t.Fatalf("lost updates: n=%d, want %d", n, want)
			}
			if got := l.Stats().Acquisitions; got != int64(want) {
				t.Fatalf("acquisitions = %d, want %d", got, want)
			}
		})
	}
}

// TestAlgoTryLock: TryLock must fail against a holder, from the holder's
// CPU and another, succeed on a free lock, and compose with Unlock.
func TestAlgoTryLock(t *testing.T) {
	for _, p := range arsenalPolicies {
		t.Run(p.String(), func(t *testing.T) {
			l, m := newArsenal(p)
			c0, c1 := m.CPU(0), m.CPU(1)
			if !l.TryLock(c0) {
				t.Fatal("TryLock failed on a free lock")
			}
			if l.TryLock(c0) {
				t.Fatal("TryLock succeeded against a holder")
			}
			if l.TryLock(c1) {
				t.Fatal("TryLock from another CPU succeeded against a holder")
			}
			l.Unlock(c0)
			if !l.TryLock(c1) {
				t.Fatal("TryLock failed after release")
			}
			l.Unlock(c1)
		})
	}
}

// TestAlgoTryLockUnderChurn interleaves TryLock with blocking Lock: a
// trylock must never corrupt the queue or park state the blocking path
// depends on.
func TestAlgoTryLockUnderChurn(t *testing.T) {
	for _, p := range arsenalPolicies {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			l, m := newArsenal(p)
			const iters = 500
			lockers := m.NCPU() - 1
			n, took := 0, 0
			var wg sync.WaitGroup
			for i := 0; i < lockers; i++ {
				wg.Add(1)
				go func(c *hw.CPU) {
					defer wg.Done()
					for j := 0; j < iters; j++ {
						l.Lock(c)
						n++
						l.Unlock(c)
					}
				}(m.CPU(i))
			}
			wg.Add(1)
			go func(c *hw.CPU) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					if l.TryLock(c) {
						took++
						n++
						l.Unlock(c)
					}
					runtime.Gosched()
				}
			}(m.CPU(lockers))
			wg.Wait()
			if want := lockers*iters + took; n != want {
				t.Fatalf("lost updates under trylock churn: n=%d, want %d", n, want)
			}
		})
	}
}

// TestAlgoUnlockSanity: unlocking a free lock must panic under every
// policy, as it does on the production lock.
func TestAlgoUnlockSanity(t *testing.T) {
	for _, p := range arsenalPolicies {
		t.Run(p.String(), func(t *testing.T) {
			l, m := newArsenal(p)
			defer func() {
				if recover() == nil {
					t.Fatal("unlock of a free lock did not panic")
				}
			}()
			l.Unlock(m.CPU(0))
		})
	}
}

// TestNewWithZeroOptsIsDefault: the zero Opts must build a lock
// indistinguishable from the zero value.
func TestNewWithZeroOptsIsDefault(t *testing.T) {
	l := NewWith(Opts{})
	if l.class != nil || l.name != "" || l.Locked() {
		t.Fatal("zero Opts built a lock that differs from the zero value")
	}
	l.Lock()
	if !l.Locked() {
		t.Fatal("default lock not held after Lock")
	}
	l.Unlock()
}
