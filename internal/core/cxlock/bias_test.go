package cxlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/sched"
)

// biasedLock builds the standard lock under test: reader-biased, sleepable.
func biasedLock() *Lock {
	return NewWith(Options{Sleep: true, ReaderBias: true, Name: "test.bias"})
}

func TestBiasFastPathCounts(t *testing.T) {
	// A lone biased reader must take the fast path (BiasedReads) and still
	// appear in ReadAcquisitions — the stats contract.
	l := biasedLock()
	self := sched.New("r")
	for i := 0; i < 10; i++ {
		l.Read(self)
		l.Done(self)
	}
	s := l.Stats()
	if s.BiasedReads != 10 {
		t.Fatalf("BiasedReads = %d, want 10", s.BiasedReads)
	}
	if s.ReadAcquisitions != 10 {
		t.Fatalf("ReadAcquisitions = %d, want 10 (biased reads must count)", s.ReadAcquisitions)
	}
}

func TestBiasNilThreadTakesSlowPath(t *testing.T) {
	l := biasedLock()
	l.Read(nil)
	l.Done(nil)
	s := l.Stats()
	if s.BiasedReads != 0 {
		t.Fatalf("BiasedReads = %d, want 0 for nil identity", s.BiasedReads)
	}
	if s.ReadAcquisitions != 1 {
		t.Fatalf("ReadAcquisitions = %d, want 1", s.ReadAcquisitions)
	}
}

func TestWriterRevokesBiasAndExcludesReaders(t *testing.T) {
	// A writer must drain a published fast-path reader before acquiring,
	// and the revocation must be recorded.
	l := biasedLock()
	reader := sched.New("r")
	l.Read(reader) // fast path: occupies a slot

	var writerIn atomic.Bool
	w := sched.Go("w", func(self *sched.Thread) {
		l.Write(self)
		writerIn.Store(true)
		l.Done(self)
	})
	time.Sleep(5 * time.Millisecond)
	if writerIn.Load() {
		t.Fatal("writer acquired while a biased reader held the lock")
	}
	l.Done(reader) // fast-path release observes the revocation, wakes writer
	w.Join()
	if !writerIn.Load() {
		t.Fatal("writer never acquired")
	}
	if s := l.Stats(); s.BiasRevocations == 0 {
		t.Fatal("revocation not recorded")
	}
}

func TestBiasSlotCollisionFallsBackToSlowPath(t *testing.T) {
	// Occupy a reader's slot with a colliding hold; the reader must fall
	// back to the interlocked slow path, not corrupt the foreign slot.
	l := biasedLock()
	a := sched.New("a")
	l.Read(a) // a publishes in its slot

	// Forge a second thread into a's slot position by direct table write:
	// package-internal test of the collision path without relying on
	// allocator addresses colliding.
	b := sched.New("b")
	idxA, idxB := slotIndex(a), slotIndex(b)
	if idxA != idxB {
		// Simulate the collision: park a's hold where b hashes.
		l.bias.slots[idxA].owner.Store(nil)
		l.bias.slots[idxB].owner.Store(a)
	}

	l.Read(b) // collision: must take the slow path
	s := l.Stats()
	if s.BiasedReads != 1 {
		t.Fatalf("BiasedReads = %d, want 1 (only a's publish)", s.BiasedReads)
	}
	if got := l.Readers(); got != 2 {
		t.Fatalf("Readers = %d, want 2", got)
	}
	l.Done(b) // releases b's slow-path hold (owner of slot is a, not b)
	if got := l.Readers(); got != 1 {
		t.Fatalf("Readers after b done = %d, want 1", got)
	}
	// Restore a's hold to its real slot so Done(a) finds it.
	if idxA != idxB {
		l.bias.slots[idxB].owner.Store(nil)
		l.bias.slots[idxA].owner.Store(a)
	}
	l.Done(a)
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers after all done = %d, want 0", got)
	}
}

func TestBiasNestedReadSameThreadUsesSlowPath(t *testing.T) {
	// A thread's second concurrent read hold collides with its own slot and
	// must go to readCount, so each hold is independently releasable.
	l := biasedLock()
	self := sched.New("r")
	l.Read(self) // fast path
	l.Read(self) // own-slot collision: slow path
	if got := l.Readers(); got != 2 {
		t.Fatalf("Readers = %d, want 2", got)
	}
	l.Done(self) // releases the fast-path hold (slot owner == self)
	l.Done(self) // releases the readCount hold
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers = %d, want 0", got)
	}
}

func TestBiasRevocationRacesUpgrade(t *testing.T) {
	// A slow-path reader upgrading while biased readers churn: the upgrade
	// must drain every fast-path hold (slot table) as well as readCount,
	// and the upgrader's own biased hold must be migrated, never lost.
	for round := 0; round < 50; round++ {
		l := biasedLock()
		var inWrite atomic.Int32
		var wg sync.WaitGroup

		wg.Add(1)
		go func() {
			defer wg.Done()
			self := sched.New("up")
			l.Read(self) // may be fast or slow path
			if failed := l.ReadToWrite(self); failed {
				return // lost to a competing upgrade: hold released
			}
			if n := inWrite.Add(1); n != 1 {
				t.Error("upgrade granted concurrently with another writer")
			}
			if l.biasArmed() {
				t.Error("bias armed during exclusive hold")
			}
			inWrite.Add(-1)
			l.Done(self)
		}()
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				self := sched.New("r")
				for j := 0; j < 20; j++ {
					l.Read(self)
					if inWrite.Load() != 0 {
						t.Error("reader admitted during exclusive upgrade hold")
					}
					l.Done(self)
				}
			}()
		}
		wg.Wait()
	}
}

func TestBiasUpgradeFromFastPathHold(t *testing.T) {
	// Upgrade a hold that was granted via the fast path: ReadToWrite must
	// migrate the slot hold into readCount and complete normally.
	l := biasedLock()
	self := sched.New("r")
	l.Read(self)
	if s := l.Stats(); s.BiasedReads != 1 {
		t.Fatalf("setup: read was not fast-path (BiasedReads=%d)", s.BiasedReads)
	}
	if failed := l.ReadToWrite(self); failed {
		t.Fatal("solo upgrade failed")
	}
	if !l.HeldForWrite() {
		t.Fatal("not held for write after upgrade")
	}
	l.WriteToRead(self)
	l.Done(self)
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers = %d after full cycle", got)
	}
}

func TestBiasRearmsAfterCooldown(t *testing.T) {
	l := biasedLock()
	self := sched.New("t")
	w := sched.New("w")
	l.Write(w) // revokes
	l.Done(w)
	if l.biasArmed() {
		t.Fatal("bias armed immediately after revocation (cooldown skipped)")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !l.biasArmed() {
		if time.Now().After(deadline) {
			t.Fatal("bias never re-armed")
		}
		l.Read(self) // slow-path reads re-arm once the cooldown expires
		l.Done(self)
	}
	// And the fast path works again.
	before := l.Stats().BiasedReads
	l.Read(self)
	l.Done(self)
	if l.Stats().BiasedReads != before+1 {
		t.Fatal("fast path dead after re-arm")
	}
}

func TestBiasTryWriteRefusesVisibleReader(t *testing.T) {
	l := biasedLock()
	r := sched.New("r")
	w := sched.New("w")
	l.Read(r) // fast-path hold
	if l.TryWrite(w) {
		t.Fatal("TryWrite succeeded over a biased reader")
	}
	l.Done(r)
	// The failed TryWrite revoked the bias; the lock must still be fully
	// functional through the slow path and eventually re-arm.
	if !l.TryWrite(w) {
		t.Fatal("TryWrite failed on a free lock")
	}
	l.Done(w)
}

func TestBiasHeldForWriteSeesFastReaders(t *testing.T) {
	l := biasedLock()
	r := sched.New("r")
	l.Read(r)
	if l.HeldForWrite() {
		t.Fatal("HeldForWrite true with only a biased reader")
	}
	if got := l.Readers(); got != 1 {
		t.Fatalf("Readers = %d, want 1", got)
	}
	l.Done(r)
}

func TestBiasOptionsSemanticsMatchUnbiased(t *testing.T) {
	// The full protocol surface must behave identically with bias on and
	// off: writer exclusion, try variants, downgrade.
	for _, biased := range []bool{false, true} {
		l := NewWith(Options{Sleep: true, ReaderBias: biased})
		self := sched.New("t")
		l.Write(self)
		if l.TryRead(sched.New("other")) {
			t.Fatalf("biased=%v: TryRead succeeded under write hold", biased)
		}
		l.WriteToRead(self)
		other := sched.New("other")
		if !l.TryRead(other) {
			t.Fatalf("biased=%v: TryRead failed under read hold", biased)
		}
		l.Done(other)
		l.Done(self)
		if !l.TryWrite(self) {
			t.Fatalf("biased=%v: TryWrite failed on free lock", biased)
		}
		l.Done(self)
	}
}

func TestBiasReadersRaceClean(t *testing.T) {
	// Raw -race smoke test: biased readers with a shared structure,
	// concurrent writers mutating it, under real host scheduling. The
	// exhaustive version of this race lives in sim_test.go
	// (TestSimBiasReadersScheduled), which explores the interleavings
	// deterministically; this one keeps a short run on the real scheduler
	// so the memory-ordering claims stay covered by the race detector.
	l := biasedLock()
	shared := map[int]int{0: 0}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	const readIters = 300
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := sched.New("r")
			for j := 0; j < readIters; j++ {
				l.Read(self)
				_ = shared[0]
				l.Done(self)
			}
		}()
	}
	wrote := make(chan struct{})
	w := sched.Go("w", func(self *sched.Thread) {
		first := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.Write(self)
			shared[0]++
			l.Done(self)
			if first {
				first = false
				close(wrote)
			}
			time.Sleep(time.Millisecond)
		}
	})
	wg.Wait()
	// Under heavy host load the readers can drain before the writer is
	// ever scheduled; insist on one write so the overlap assertions below
	// are meaningful.
	<-wrote
	close(stop)
	w.Join()
	s := l.Stats()
	if s.ReadAcquisitions != 4*readIters {
		t.Fatalf("ReadAcquisitions = %d, want %d", s.ReadAcquisitions, 4*readIters)
	}
	if s.WriteAcquisitions == 0 {
		t.Fatal("writer never ran")
	}
}

func TestRecursiveOptionGate(t *testing.T) {
	// Locks built through Options without Recursive must refuse
	// SetRecursive loudly.
	l := NewWith(Options{Sleep: true})
	self := sched.New("t")
	l.Write(self)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetRecursive on non-recursive lock did not panic")
			}
		}()
		l.SetRecursive(self)
	}()
	l.Done(self)

	// With the option, the protocol works as before.
	lr := NewWith(Options{Sleep: true, Recursive: true})
	lr.Write(self)
	lr.SetRecursive(self)
	lr.Read(self) // recursive read under write hold
	lr.Done(self)
	lr.ClearRecursive(self)
	lr.Done(self)
}
