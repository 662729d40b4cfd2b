package splock

import (
	"sync"
	"testing"
	"testing/quick"

	"machlock/internal/hw"
)

func TestLockZeroValueUnlocked(t *testing.T) {
	var l Lock
	if l.Locked() {
		t.Fatal("zero-value lock is locked")
	}
	if !l.TryLock() {
		t.Fatal("TryLock on fresh lock failed")
	}
	if !l.Locked() {
		t.Fatal("lock not locked after TryLock")
	}
	l.Unlock()
}

func TestLockMutualExclusion(t *testing.T) {
	var l Lock
	counter := 0
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d (mutual exclusion violated)", counter, workers*iters)
	}
}

func TestTryLockFailsWhenHeld(t *testing.T) {
	var l Lock
	l.Lock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock failed on released lock")
	}
	l.Unlock()
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	var l Lock
	defer func() {
		if recover() == nil {
			t.Fatal("unlock of unlocked lock did not panic")
		}
	}()
	l.Unlock()
}

func TestNoopAlwaysSucceeds(t *testing.T) {
	var n Noop
	n.Lock()
	if !n.TryLock() {
		t.Fatal("Noop.TryLock returned false")
	}
	n.Unlock()
}

func TestMutexInterfaceSatisfied(t *testing.T) {
	for _, m := range []Mutex{&Lock{}, Noop{}} {
		m.Lock()
		m.Unlock()
		if !m.TryLock() {
			t.Fatal("TryLock failed")
		}
		m.Unlock()
	}
}

func TestPolicyStrings(t *testing.T) {
	if TAS.String() != "tas" || TTAS.String() != "ttas" || TASTTAS.String() != "tas+ttas" {
		t.Fatal("policy strings wrong")
	}
	if Policy(99).String() != "policy(?)" {
		t.Fatal("unknown policy string wrong")
	}
}

func TestSimLockBasic(t *testing.T) {
	for _, p := range []Policy{TAS, TTAS, TASTTAS} {
		m := hw.New(2)
		l := NewSimWith(SimOpts{Machine: m, Algorithm: p})
		c := m.CPU(0)
		l.Lock(c)
		if l.TryLock(m.CPU(1)) {
			t.Fatalf("%v: TryLock succeeded on held lock", p)
		}
		l.Unlock(c)
		if !l.TryLock(m.CPU(1)) {
			t.Fatalf("%v: TryLock failed on free lock", p)
		}
		l.Unlock(m.CPU(1))
		if l.Policy() != p {
			t.Fatalf("policy = %v, want %v", l.Policy(), p)
		}
	}
}

func TestSimLockMutualExclusion(t *testing.T) {
	for _, p := range []Policy{TAS, TTAS, TASTTAS} {
		m := hw.New(4)
		l := NewSimWith(SimOpts{Machine: m, Algorithm: p})
		counter := 0
		var wg sync.WaitGroup
		const iters = 300
		for i := 0; i < m.NCPU(); i++ {
			wg.Add(1)
			go func(c *hw.CPU) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					l.Lock(c)
					counter++
					l.Unlock(c)
				}
			}(m.CPU(i))
		}
		wg.Wait()
		if counter != m.NCPU()*iters {
			t.Fatalf("%v: counter = %d, want %d", p, counter, m.NCPU()*iters)
		}
		s := l.Stats()
		if s.Acquisitions != int64(m.NCPU()*iters) {
			t.Fatalf("%v: acquisitions = %d, want %d", p, s.Acquisitions, m.NCPU()*iters)
		}
	}
}

func TestSimLockUnlockOfUnlockedPanics(t *testing.T) {
	m := hw.New(1)
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TTAS})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Unlock(m.CPU(0))
}

// TestTTASSpinsInCache verifies the paper's central claim about spin
// traffic. With write-back caches, two TAS spinners ping-pong the lock line
// (a bus transaction per attempt) while two TTAS spinners share it read-only
// and spin for free after the initial fills. With write-through caches even
// a single TAS spinner pays per attempt — the regime the paper cites as the
// reason TTAS must be substituted.
func TestTTASSpinsInCache(t *testing.T) {
	const iters = 100
	spinBus := func(p Policy) int64 {
		m := hw.New(3)
		l := NewSimWith(SimOpts{Machine: m, Algorithm: p})
		holder, s1, s2 := m.CPU(0), m.CPU(1), m.CPU(2)
		l.Lock(holder)
		m.ResetBus()
		for i := 0; i < iters; i++ {
			spinner := s1
			if i%2 == 1 {
				spinner = s2
			}
			switch p {
			case TAS:
				if l.TryLock(spinner) {
					t.Fatal("acquired held lock")
				}
			case TTAS:
				if l.cell.Load(spinner) == 0 {
					t.Fatal("observed free while held")
				}
			}
		}
		return m.BusTransactions()
	}
	tasBus := spinBus(TAS)
	ttasBus := spinBus(TTAS)
	if ttasBus > 2 {
		t.Fatalf("TTAS spin generated %d bus transactions, want <= 2 (cache-resident spin)", ttasBus)
	}
	if tasBus < int64(iters)-2 {
		t.Fatalf("TAS spin generated only %d bus transactions, expected ~1 per attempt", tasBus)
	}

	// Write-through: a single TAS spinner pays on every attempt.
	m := hw.NewWithConfig(hw.Config{CPUs: 2, WriteThrough: true})
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TAS})
	l.Lock(m.CPU(0))
	m.ResetBus()
	for i := 0; i < iters; i++ {
		if l.TryLock(m.CPU(1)) {
			t.Fatal("acquired held lock")
		}
	}
	if got := m.BusTransactions(); got < int64(iters) {
		t.Fatalf("write-through TAS spin generated %d transactions, want >= %d", got, iters)
	}
}

func TestSimLockFirstTryAccounting(t *testing.T) {
	m := hw.New(1)
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TASTTAS})
	c := m.CPU(0)
	for i := 0; i < 5; i++ {
		l.Lock(c)
		l.Unlock(c)
	}
	s := l.Stats()
	if s.FirstTry != 5 {
		t.Fatalf("uncontended first-try acquisitions = %d, want 5", s.FirstTry)
	}
	if s.SpinLoops != 0 {
		t.Fatalf("uncontended spins = %d, want 0", s.SpinLoops)
	}
}

// Property: any interleaving of try/lock/unlock from a single CPU keeps the
// lock state consistent (try succeeds iff free).
func TestSimLockSequentialQuick(t *testing.T) {
	f := func(ops []bool) bool {
		m := hw.New(1)
		l := NewSimWith(SimOpts{Machine: m, Algorithm: TASTTAS})
		c := m.CPU(0)
		held := false
		for _, acquire := range ops {
			if acquire {
				got := l.TryLock(c)
				if got == held {
					return false // succeeded while held, or failed while free
				}
				if got {
					held = true
				}
			} else if held {
				l.Unlock(c)
				held = false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTestAndClearEncoding(t *testing.T) {
	m := hw.New(2)
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TCLEAR})
	if l.Policy().String() != "test-and-clear" {
		t.Fatalf("policy = %v", l.Policy())
	}
	c0, c1 := m.CPU(0), m.CPU(1)
	l.Lock(c0)
	if l.TryLock(c1) {
		t.Fatal("acquired held test-and-clear lock")
	}
	l.Unlock(c0)
	if !l.TryLock(c1) {
		t.Fatal("failed to acquire free test-and-clear lock")
	}
	l.Unlock(c1)

	// Contended mutual exclusion, same as the set-style policies.
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(c *hw.CPU) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Lock(c)
				counter++
				l.Unlock(c)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	if counter != 1000 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestTestAndClearUnlockOfUnlockedPanics(t *testing.T) {
	m := hw.New(1)
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TCLEAR})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Unlock(m.CPU(0))
}

// TestTestAndClearSpinTrafficMatchesTAS: the paper's point is that all the
// hardware encodings share the same coherence behaviour; the spin-phase
// traffic of test-and-clear equals TAS's.
func TestTestAndClearSpinTrafficMatchesTAS(t *testing.T) {
	m := hw.New(3)
	l := NewSimWith(SimOpts{Machine: m, Algorithm: TCLEAR})
	l.Lock(m.CPU(0))
	m.ResetBus()
	for i := 0; i < 100; i++ {
		spinner := m.CPU(1 + i%2)
		if l.SpinOnce(spinner) {
			t.Fatal("acquired held lock")
		}
	}
	if got := m.BusTransactions(); got < 98 {
		t.Fatalf("test-and-clear spin traffic = %d, want ~1 per attempt like TAS", got)
	}
}
