package cxlock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/sched"
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
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestZeroValueIsSpinLock(t *testing.T) {
	var l Lock
	l.Read(nil)
	l.Done(nil)
	l.Write(nil)
	l.Done(nil)
	if l.CanSleep() {
		t.Fatal("zero value lock is sleepable")
	}
}

func TestMultipleReadersShareTheLock(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	var concurrent, peak atomic.Int32
	var threads []*sched.Thread
	for i := 0; i < 8; i++ {
		threads = append(threads, sched.Go("r", func(self *sched.Thread) {
			l.Read(self)
			n := concurrent.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			concurrent.Add(-1)
			l.Done(self)
		}))
	}
	join(t, "readers", threads...)
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent readers = %d, want >= 2", peak.Load())
	}
	if l.Readers() != 0 {
		t.Fatalf("readers after done = %d", l.Readers())
	}
}

func TestWriterExcludesEverything(t *testing.T) {
	for _, sleepable := range []bool{false, true} {
		l := NewWith(Options{Sleep: sleepable})
		var active atomic.Int32
		var violations atomic.Int32
		var threads []*sched.Thread
		for i := 0; i < 6; i++ {
			writer := i%2 == 0
			threads = append(threads, sched.Go("w", func(self *sched.Thread) {
				for j := 0; j < 50; j++ {
					if writer {
						l.Write(self)
						if active.Add(1) != 1 {
							violations.Add(1)
						}
						active.Add(-1)
						l.Done(self)
					} else {
						l.Read(self)
						if active.Load() != 0 {
							violations.Add(1)
						}
						l.Done(self)
					}
				}
			}))
		}
		join(t, "writers", threads...)
		if violations.Load() != 0 {
			t.Fatalf("sleepable=%v: %d exclusion violations", sleepable, violations.Load())
		}
	}
}

func TestWriterPriorityBlocksNewReaders(t *testing.T) {
	// "readers may not be added to a lock held for reading in the
	// presence of an outstanding write request"
	l := NewWith(Options{Sleep: true})
	holder := sched.New("holder")
	l.Read(holder)

	writerGotIt := make(chan struct{})
	writer := sched.Go("writer", func(self *sched.Thread) {
		l.Write(self) // queues behind the existing reader
		close(writerGotIt)
		l.Done(self)
	})
	// Wait for the writer to register its want_write request.
	for {
		l.interlock.Lock()
		w := l.wantWrite
		l.interlock.Unlock()
		if w {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// A new reader must now be refused (TryRead) and must queue (Read).
	late := sched.New("late")
	if l.TryRead(late) {
		t.Fatal("TryRead succeeded with an outstanding write request")
	}
	lateReader := sched.Go("late-reader", func(self *sched.Thread) {
		l.Read(self)
		select {
		case <-writerGotIt:
		default:
			t.Error("late reader admitted before queued writer")
		}
		l.Done(self)
	})
	time.Sleep(10 * time.Millisecond)
	l.Done(holder) // release the original read hold; writer proceeds
	join(t, "writer+late reader", writer, lateReader)
}

func TestUpgradeSucceedsWhenAlone(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	th := sched.New("t")
	l.Read(th)
	if failed := l.ReadToWrite(th); failed {
		t.Fatal("solo upgrade failed")
	}
	if !l.HeldForWrite() {
		t.Fatal("lock not write-held after upgrade")
	}
	l.Done(th)
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	other := sched.New("other")
	l.Read(other)

	upgraded := make(chan struct{})
	up := sched.Go("up", func(self *sched.Thread) {
		l.Read(self)
		if failed := l.ReadToWrite(self); failed {
			t.Error("upgrade failed with no competing upgrade")
		}
		close(upgraded)
		l.Done(self)
	})
	select {
	case <-upgraded:
		t.Fatal("upgrade completed while another reader held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	l.Done(other)
	join(t, "upgrader", up)
}

func TestSecondUpgradeFailsAndReleasesReadLock(t *testing.T) {
	// The deadlock-avoidance rule: "causing upgrades to fail (releasing
	// their read locks) in the presence of another upgrade request."
	l := NewWith(Options{Sleep: true})
	a := sched.New("a")
	b := sched.New("b")
	l.Read(a)
	l.Read(b)

	firstWaiting := make(chan struct{})
	first := sched.Go("first-up", func(self *sched.Thread) {
		// Take over a's read hold conceptually: use thread a's hold by
		// doing our own read then upgrade.
		close(firstWaiting)
		if failed := l.ReadToWrite(a); failed {
			t.Error("first upgrade failed")
		}
		l.Done(a)
	})
	<-firstWaiting
	// Wait until the first upgrade registers want_upgrade.
	for {
		l.interlock.Lock()
		w := l.wantUpgrade
		l.interlock.Unlock()
		if w {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Second upgrade must fail immediately, releasing b's read hold —
	// which is exactly what lets the first upgrade complete.
	if failed := l.ReadToWrite(b); !failed {
		t.Fatal("second upgrade succeeded; both upgrades should deadlock")
	}
	join(t, "first upgrader", first)
	if l.Stats().FailedUpgrades != 1 {
		t.Fatalf("failed upgrades = %d, want 1", l.Stats().FailedUpgrades)
	}
}

func TestDowngradeCannotFail(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	th := sched.New("t")
	l.Write(th)
	l.WriteToRead(th)
	if l.Readers() != 1 {
		t.Fatalf("readers after downgrade = %d, want 1", l.Readers())
	}
	// Other readers can now share.
	other := sched.New("o")
	if !l.TryRead(other) {
		t.Fatal("TryRead failed after downgrade")
	}
	l.Done(other)
	l.Done(th)
	if l.Stats().Downgrades != 1 {
		t.Fatal("downgrade not counted")
	}
}

func TestDowngradeWakesWaitingReaders(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	w := sched.New("w")
	l.Write(w)
	var got atomic.Int32
	readers := []*sched.Thread{
		sched.Go("r1", func(self *sched.Thread) { l.Read(self); got.Add(1); l.Done(self) }),
		sched.Go("r2", func(self *sched.Thread) { l.Read(self); got.Add(1); l.Done(self) }),
	}
	time.Sleep(10 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("reader acquired while write held")
	}
	l.WriteToRead(w)
	join(t, "readers after downgrade", readers...)
	l.Done(w)
}

func TestTryWrite(t *testing.T) {
	l := NewWith(Options{})
	a, b := sched.New("a"), sched.New("b")
	if !l.TryWrite(a) {
		t.Fatal("TryWrite failed on free lock")
	}
	if l.TryWrite(b) {
		t.Fatal("TryWrite succeeded on write-held lock")
	}
	if l.TryRead(b) {
		t.Fatal("TryRead succeeded on write-held lock")
	}
	l.Done(a)
	l.Read(a)
	if l.TryWrite(b) {
		t.Fatal("TryWrite succeeded on read-held lock")
	}
	if !l.TryRead(b) {
		t.Fatal("TryRead failed on read-held lock")
	}
	l.Done(a)
	l.Done(b)
}

func TestTryReadToWriteKeepsReadLockOnRefusal(t *testing.T) {
	// Unlike ReadToWrite, the try variant "does not drop the read lock if
	// the upgrade would deadlock".
	l := NewWith(Options{Sleep: true})
	a, b := sched.New("a"), sched.New("b")
	l.Read(a)
	l.Read(b)
	done := make(chan struct{})
	up := sched.Go("up", func(self *sched.Thread) {
		if failed := l.ReadToWrite(a); failed {
			t.Error("first upgrade failed")
		}
		close(done)
		l.Done(a)
	})
	for {
		l.interlock.Lock()
		w := l.wantUpgrade
		l.interlock.Unlock()
		if w {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if l.TryReadToWrite(b) {
		t.Fatal("TryReadToWrite succeeded against a pending upgrade")
	}
	if l.Readers() == 0 {
		t.Fatal("TryReadToWrite dropped the read hold on refusal")
	}
	l.Done(b) // now the first upgrade can complete
	join(t, "upgrader", up)
	<-done
}

func TestTryReadToWriteSoloSucceeds(t *testing.T) {
	l := NewWith(Options{})
	th := sched.New("t")
	l.Read(th)
	if !l.TryReadToWrite(th) {
		t.Fatal("solo TryReadToWrite failed")
	}
	if !l.HeldForWrite() {
		t.Fatal("not write-held after try-upgrade")
	}
	l.Done(th)
}

func TestRecursiveWriteAcquisition(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	l.Write(th)
	l.SetRecursive(th)
	l.Write(th) // recursive; would deadlock without the option
	l.Write(th)
	l.Done(th)
	l.Done(th)
	l.ClearRecursive(th)
	l.Done(th)
	if l.HeldForWrite() {
		t.Fatal("lock still held after full release")
	}
}

func TestRecursiveReadBypassesPendingWriter(t *testing.T) {
	// "the holder's requests are not blocked by a pending write or
	// upgrade request" — the property that lets the holder drain its
	// recursion so the writer can eventually proceed.
	l := NewWith(Options{Sleep: true, Recursive: true})
	holder := sched.New("holder")
	l.Write(holder)
	l.SetRecursive(holder)
	l.WriteToRead(holder) // downgrade to recursive read

	writerDone := make(chan struct{})
	writer := sched.Go("writer", func(self *sched.Thread) {
		l.Write(self)
		close(writerDone)
		l.Done(self)
	})
	for {
		l.interlock.Lock()
		w := l.wantWrite
		l.interlock.Unlock()
		if w {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// An ordinary reader would now block; the recursive holder must not.
	acquired := make(chan struct{})
	go func() {
		l.Read(holder)
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("recursive holder's read blocked by pending writer")
	}
	l.Done(holder) // inner read
	l.ClearRecursive(holder)
	l.Done(holder) // outer read
	join(t, "writer", writer)
	<-writerDone
}

func TestSetRecursiveRequiresWriteHold(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	l.Read(th)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRecursive on read-held lock did not panic")
		}
		l.Done(th)
	}()
	l.SetRecursive(th)
}

func TestRecursiveWriteAfterDowngradeProhibited(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	l.Write(th)
	l.SetRecursive(th)
	l.WriteToRead(th)
	defer func() {
		if recover() == nil {
			t.Fatal("recursive write after downgrade did not panic")
		}
		l.ClearRecursive(th)
		l.Done(th)
	}()
	l.Write(th)
}

func TestClearRecursiveValidation(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th, other := sched.New("t"), sched.New("o")
	l.Write(th)
	l.SetRecursive(th)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ClearRecursive by non-holder did not panic")
			}
		}()
		l.ClearRecursive(other)
	}()
	l.Write(th) // depth 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ClearRecursive with outstanding depth did not panic")
			}
		}()
		l.ClearRecursive(th)
	}()
	l.Done(th)
	l.ClearRecursive(th)
	l.Done(th)
}

func TestDoneOnUnheldLockPanics(t *testing.T) {
	l := NewWith(Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("Done on unheld lock did not panic")
		}
	}()
	l.Done(nil)
}

func TestSleepOptionActuallySleeps(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	w := sched.New("w")
	l.Write(w)
	reader := sched.Go("r", func(self *sched.Thread) {
		l.Read(self)
		l.Done(self)
	})
	// The reader should block (not spin): wait for a sleep to register.
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Sleeps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sleepable lock never slept")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	join(t, "sleeping reader", reader)
	if reader.Blocks() == 0 {
		t.Fatal("reader thread never blocked")
	}
}

func TestSpinModeNeverBlocks(t *testing.T) {
	l := NewWith(Options{})
	w := sched.New("w")
	l.Write(w)
	reader := sched.Go("r", func(self *sched.Thread) {
		l.Read(self)
		l.Done(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Spins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("spin lock never spun")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	join(t, "spinning reader", reader)
	if reader.Blocks() != 0 {
		t.Fatal("non-sleepable lock blocked a thread")
	}
	if l.Stats().Sleeps != 0 {
		t.Fatal("non-sleepable lock recorded sleeps")
	}
}

func TestMach25UpgradeBugReproduction(t *testing.T) {
	// With the compat flag set, lock_try_read_to_write blocks (sleeps)
	// even though the lock's Sleep option is off.
	l := NewWith(Options{})
	l.Mach25UpgradeBug = true
	other := sched.New("other")
	l.Read(other)

	up := sched.Go("up", func(self *sched.Thread) {
		l.Read(self)
		if !l.TryReadToWrite(self) {
			t.Error("try-upgrade refused with no competing upgrade")
		}
		l.Done(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for up.Blocks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("buggy try-upgrade never blocked (bug not reproduced)")
		}
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Sleeps == 0 {
		t.Fatal("no sleep recorded on non-sleepable lock (bug not reproduced)")
	}
	l.Done(other)
	join(t, "buggy upgrader", up)
}

func TestWriterNotStarvedStress(t *testing.T) {
	// A flood of readers must not starve a writer (writer priority).
	l := NewWith(Options{Sleep: true})
	stop := make(chan struct{})
	var readerOps atomic.Int64
	var readers []*sched.Thread
	for i := 0; i < 4; i++ {
		readers = append(readers, sched.Go("r", func(self *sched.Thread) {
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Read(self)
				readerOps.Add(1)
				l.Done(self)
			}
		}))
	}
	writer := sched.Go("w", func(self *sched.Thread) {
		for i := 0; i < 50; i++ {
			l.Write(self)
			l.Done(self)
		}
	})
	join(t, "writer through reader flood", writer)
	close(stop)
	join(t, "readers", readers...)
	if l.Stats().WriteAcquisitions != 50 {
		t.Fatalf("write acquisitions = %d, want 50", l.Stats().WriteAcquisitions)
	}
}

func TestMixedStressInvariant(t *testing.T) {
	// Readers record a snapshot-consistent pair; writers update both
	// halves. Any torn read proves exclusion failed.
	l := NewWith(Options{Sleep: true})
	var a, b int64
	var violations atomic.Int64
	var threads []*sched.Thread
	for i := 0; i < 3; i++ {
		threads = append(threads, sched.Go("w", func(self *sched.Thread) {
			for j := 0; j < 200; j++ {
				l.Write(self)
				a++
				b++
				l.Done(self)
			}
		}))
		threads = append(threads, sched.Go("r", func(self *sched.Thread) {
			for j := 0; j < 200; j++ {
				l.Read(self)
				if a != b {
					violations.Add(1)
				}
				l.Done(self)
			}
		}))
		threads = append(threads, sched.Go("u", func(self *sched.Thread) {
			for j := 0; j < 50; j++ {
				l.Read(self)
				if failed := l.ReadToWrite(self); failed {
					continue // read hold gone; restart
				}
				a++
				b++
				l.WriteToRead(self)
				if a != b {
					violations.Add(1)
				}
				l.Done(self)
			}
		}))
	}
	join(t, "mixed stress", threads...)
	if violations.Load() != 0 {
		t.Fatalf("%d exclusion violations", violations.Load())
	}
	if a != b {
		t.Fatalf("final torn state: a=%d b=%d", a, b)
	}
}

func TestStatsAccounting(t *testing.T) {
	l := NewWith(Options{Sleep: true})
	th := sched.New("t")
	l.Read(th)
	l.Done(th)
	l.Write(th)
	l.WriteToRead(th)
	l.ReadToWrite(th)
	l.Done(th)
	s := l.Stats()
	if s.ReadAcquisitions != 1 || s.WriteAcquisitions != 1 || s.Downgrades != 1 || s.Upgrades != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentTryOpsNeverCorrupt(t *testing.T) {
	l := NewWith(Options{})
	var wg sync.WaitGroup
	var held atomic.Int32 // +1 per reader, +1000 per writer
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := sched.New("t")
			for j := 0; j < 500; j++ {
				if i%2 == 0 {
					if l.TryRead(th) {
						if held.Add(1) >= 1000 {
							t.Error("reader admitted during write")
						}
						held.Add(-1)
						l.Done(th)
					}
				} else {
					if l.TryWrite(th) {
						if held.Add(1000) != 1000 {
							t.Error("writer admitted with others inside")
						}
						held.Add(-1000)
						l.Done(th)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}
