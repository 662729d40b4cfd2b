package cxlock

import (
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/sched"
)

// recordingObserver counts events for the observer-hook tests.
type recordingObserver struct {
	acquired, released, waiting, doneWaiting atomic.Int64
}

func (r *recordingObserver) Acquired(*Lock, *sched.Thread)    { r.acquired.Add(1) }
func (r *recordingObserver) Released(*Lock, *sched.Thread)    { r.released.Add(1) }
func (r *recordingObserver) Waiting(*Lock, *sched.Thread)     { r.waiting.Add(1) }
func (r *recordingObserver) DoneWaiting(*Lock, *sched.Thread) { r.doneWaiting.Add(1) }

func TestObserverSeesAcquireReleaseBalance(t *testing.T) {
	rec := &recordingObserver{}
	AddObserver(rec)
	defer RemoveObserver(rec)

	l := NewWith(Options{Sleep: true})
	th := sched.New("t")
	l.Read(th)
	l.Done(th)
	l.Write(th)
	l.WriteToRead(th) // no hold-count change
	l.Done(th)
	l.TryRead(th)
	l.Done(th)
	if a, r := rec.acquired.Load(), rec.released.Load(); a != 3 || r != 3 {
		t.Fatalf("acquired=%d released=%d, want 3/3 (every successful acquisition must balance a release)", a, r)
	}
}

func TestObserverSeesFailedUpgradeAsRelease(t *testing.T) {
	rec := &recordingObserver{}
	AddObserver(rec)
	defer RemoveObserver(rec)

	l := NewWith(Options{Sleep: true})
	a, b := sched.New("a"), sched.New("b")
	l.Read(a)
	l.Read(b)
	done := make(chan struct{})
	up := sched.Go("up", func(self *sched.Thread) {
		l.ReadToWrite(a)
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
	if failed := l.ReadToWrite(b); !failed {
		t.Fatal("second upgrade should fail")
	}
	// b's read hold was released by the failed upgrade: observer must
	// have seen it.
	if rec.released.Load() == 0 {
		t.Fatal("failed upgrade not reported as a release")
	}
	up.Join()
	<-done
}

func TestObserverWaitingEvents(t *testing.T) {
	rec := &recordingObserver{}
	AddObserver(rec)
	defer RemoveObserver(rec)

	l := NewWith(Options{Sleep: true})
	w := sched.New("w")
	l.Write(w)
	reader := sched.Go("r", func(self *sched.Thread) {
		l.Read(self)
		l.Done(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for rec.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("observer never saw the wait")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	reader.Join()
	if rec.doneWaiting.Load() == 0 {
		t.Fatal("observer never saw the wait end")
	}
}

func TestObserverIgnoresAnonymous(t *testing.T) {
	rec := &recordingObserver{}
	AddObserver(rec)
	defer RemoveObserver(rec)
	l := NewWith(Options{})
	l.Read(nil)
	l.Done(nil)
	if rec.acquired.Load() != 0 || rec.released.Load() != 0 {
		t.Fatal("anonymous operations leaked to observer")
	}
}

func TestRecursiveHolderAccessor(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	if l.RecursiveHolder() != nil {
		t.Fatal("fresh lock has a recursive holder")
	}
	l.Write(th)
	l.SetRecursive(th)
	if l.RecursiveHolder() != th {
		t.Fatal("holder not reported")
	}
	// Re-setting by the same holder is idempotent.
	l.SetRecursive(th)
	l.ClearRecursive(th)
	l.Done(th)
}

func TestSetRecursiveByOtherThreadPanics(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	a, b := sched.New("a"), sched.New("b")
	l.Write(a)
	l.SetRecursive(a)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
		l.ClearRecursive(a)
		l.Done(a)
	}()
	l.SetRecursive(b)
}

func TestSetRecursiveNilThreadPanics(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.SetRecursive(nil)
}

func TestTryOpsOnRecursiveHolder(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	l.Write(th)
	l.SetRecursive(th)

	// TryWrite by the holder succeeds recursively.
	if !l.TryWrite(th) {
		t.Fatal("recursive TryWrite failed")
	}
	l.Done(th) // depth back to 0

	// TryRead by the holder bypasses everything.
	if !l.TryRead(th) {
		t.Fatal("recursive TryRead failed")
	}
	// TryReadToWrite by the holder folds into recursion.
	if !l.TryReadToWrite(th) {
		t.Fatal("recursive TryReadToWrite failed")
	}
	l.Done(th) // depth
	l.ClearRecursive(th)
	l.Done(th) // write

	// After a downgrade, the holder's write-side try operations refuse.
	l.Write(th)
	l.SetRecursive(th)
	l.WriteToRead(th)
	if l.TryWrite(th) {
		t.Fatal("TryWrite after downgrade succeeded")
	}
	l.Read(th) // recursive read is fine
	if l.TryReadToWrite(th) {
		t.Fatal("TryReadToWrite after downgrade succeeded")
	}
	l.Done(th)
	l.ClearRecursive(th)
	l.Done(th)
}

func TestUpgradeOfRecursiveReadAfterDowngradePanics(t *testing.T) {
	l := NewWith(Options{Sleep: true, Recursive: true})
	th := sched.New("t")
	l.Write(th)
	l.SetRecursive(th)
	l.WriteToRead(th)
	l.Read(th) // recursive read
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
		l.Done(th)
		l.ClearRecursive(th)
		l.Done(th)
	}()
	l.ReadToWrite(th)
}

func TestTryReadToWriteSpinsForReadersWhenNotSleepable(t *testing.T) {
	// The correct (non-Mach-2.5) behaviour: with Sleep off, the upgrade
	// spins for the other readers rather than blocking.
	l := NewWith(Options{})
	other := sched.New("other")
	l.Read(other)
	done := make(chan struct{})
	up := sched.Go("up", func(self *sched.Thread) {
		l.Read(self)
		if !l.TryReadToWrite(self) {
			t.Error("try-upgrade refused")
		}
		close(done)
		l.Done(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Spins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("upgrade never spun")
		}
		time.Sleep(time.Millisecond)
	}
	if up.Blocks() != 0 {
		t.Fatal("non-sleepable upgrade blocked (Mach 2.5 bug without the flag)")
	}
	l.Done(other)
	up.Join()
	<-done
}

func TestBusyWaitSpinsBurnCPU(t *testing.T) {
	l := NewWith(Options{})
	l.BusyWait = true
	w := sched.New("w")
	l.Write(w)
	reader := sched.Go("r", func(self *sched.Thread) {
		l.Read(self)
		l.Done(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Spins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("busy-wait reader never spun")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	reader.Join()
}
