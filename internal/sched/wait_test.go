package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTimeout fails the test if fn doesn't complete in time; used to detect
// lost wakeups without hanging the suite.
func waitTimeout(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out: %s", what)
	}
}

func TestWakeupBeforeBlockIsNotLost(t *testing.T) {
	tb := NewTable()
	th := New("t")
	ev := new(int)
	tb.AssertWait(th, ev)
	if n := tb.ThreadWakeup(ev); n != 1 {
		t.Fatalf("wakeup woke %d, want 1", n)
	}
	// The event occurred between assert and block: block must not park.
	if r := tb.ThreadBlock(th); r != NotWaiting {
		t.Fatalf("ThreadBlock = %v, want not-waiting", r)
	}
	if th.ShortBlocks() != 1 || th.Blocks() != 0 {
		t.Fatalf("short=%d blocks=%d, want 1/0", th.ShortBlocks(), th.Blocks())
	}
}

func TestBlockThenWakeup(t *testing.T) {
	tb := NewTable()
	ev := new(int)
	started := make(chan struct{})
	th := Go("sleeper", func(self *Thread) {
		tb.AssertWait(self, ev)
		close(started)
		if r := tb.ThreadBlock(self); r != Awakened {
			t.Errorf("ThreadBlock = %v, want awakened", r)
		}
	})
	<-started
	// Wait until the thread is actually parked, then wake it.
	for th.Blocks() == 0 && tb.Waiting(ev) {
		time.Sleep(time.Millisecond)
		if th.Blocks() > 0 {
			break
		}
	}
	for tb.ThreadWakeup(ev) == 0 {
		time.Sleep(time.Millisecond)
	}
	waitTimeout(t, "sleeper join", th.Join)
}

func TestWakeupWakesAllWaiters(t *testing.T) {
	tb := NewTable()
	ev := new(int)
	const n = 8
	var ready sync.WaitGroup
	ready.Add(n)
	threads := make([]*Thread, n)
	for i := range threads {
		threads[i] = Go("w", func(self *Thread) {
			tb.AssertWait(self, ev)
			ready.Done()
			tb.ThreadBlock(self)
		})
	}
	ready.Wait()
	woken := tb.ThreadWakeup(ev)
	if woken != n {
		t.Fatalf("woke %d, want %d", woken, n)
	}
	for _, th := range threads {
		waitTimeout(t, "waiter join", th.Join)
	}
}

func TestWakeupOneWakesExactlyOne(t *testing.T) {
	tb := NewTable()
	ev := new(int)
	var ready sync.WaitGroup
	ready.Add(2)
	mk := func() *Thread {
		return Go("w", func(self *Thread) {
			tb.AssertWait(self, ev)
			ready.Done()
			tb.ThreadBlock(self)
		})
	}
	t1, t2 := mk(), mk()
	ready.Wait()
	if n := tb.ThreadWakeupOne(ev); n != 1 {
		t.Fatalf("ThreadWakeupOne woke %d, want 1", n)
	}
	if !tb.Waiting(ev) {
		t.Fatal("second waiter disappeared after single wakeup")
	}
	if n := tb.ThreadWakeupOne(ev); n != 1 {
		t.Fatalf("second ThreadWakeupOne woke %d, want 1", n)
	}
	waitTimeout(t, "t1", t1.Join)
	waitTimeout(t, "t2", t2.Join)
}

func TestWakeupDifferentEventDoesNotWake(t *testing.T) {
	tb := NewTable()
	ev1, ev2 := new(int), new(int)
	th := New("t")
	tb.AssertWait(th, ev1)
	if n := tb.ThreadWakeup(ev2); n != 0 {
		t.Fatalf("wakeup on unrelated event woke %d", n)
	}
	if !tb.Waiting(ev1) {
		t.Fatal("waiter lost by unrelated wakeup")
	}
	tb.ClearWait(th) // clean up
}

func TestEmptyWakeupCounted(t *testing.T) {
	tb := NewTable()
	if n := tb.ThreadWakeup(new(int)); n != 0 {
		t.Fatalf("empty wakeup woke %d, want 0", n)
	}
	if n := tb.ThreadWakeupOne(new(int)); n != 0 {
		t.Fatalf("empty wakeup-one woke %d, want 0", n)
	}
}

func TestClearWaitBeforeBlock(t *testing.T) {
	tb := NewTable()
	th := New("t")
	ev := new(int)
	tb.AssertWait(th, ev)
	if !tb.ClearWait(th) {
		t.Fatal("ClearWait on waiting thread returned false")
	}
	if tb.Waiting(ev) {
		t.Fatal("thread still in event table after ClearWait")
	}
	if r := tb.ThreadBlock(th); r != NotWaiting {
		t.Fatalf("ThreadBlock = %v, want not-waiting", r)
	}
}

func TestClearWaitWakesBlockedThreadWithRestarted(t *testing.T) {
	tb := NewTable()
	ev := new(int)
	var got atomic.Int32
	th := Go("t", func(self *Thread) {
		tb.AssertWait(self, ev)
		got.Store(int32(tb.ThreadBlock(self)))
	})
	for th.Blocks() == 0 {
		time.Sleep(time.Millisecond)
	}
	if !tb.ClearWait(th) {
		t.Fatal("ClearWait on blocked thread returned false")
	}
	waitTimeout(t, "join", th.Join)
	if WaitResult(got.Load()) != Restarted {
		t.Fatalf("result = %v, want restarted", WaitResult(got.Load()))
	}
}

func TestClearWaitOnRunningThreadIsNoop(t *testing.T) {
	tb := NewTable()
	th := New("t")
	if tb.ClearWait(th) {
		t.Fatal("ClearWait on running thread returned true")
	}
}

func TestNullEventOnlyClearWaitWakes(t *testing.T) {
	tb := NewTable()
	var got atomic.Int32
	th := Go("t", func(self *Thread) {
		tb.AssertWait(self, nil)
		got.Store(int32(tb.ThreadBlock(self)))
	})
	for th.Blocks() == 0 {
		time.Sleep(time.Millisecond)
	}
	if !tb.ClearWait(th) {
		t.Fatal("ClearWait failed on null-event waiter")
	}
	waitTimeout(t, "join", th.Join)
	if WaitResult(got.Load()) != Restarted {
		t.Fatalf("result = %v, want restarted", WaitResult(got.Load()))
	}
}

func TestDoubleAssertWaitPanics(t *testing.T) {
	tb := NewTable()
	th := New("t")
	tb.AssertWait(th, new(int))
	defer func() {
		if recover() == nil {
			t.Fatal("second assert_wait did not panic")
		}
		tb.ClearWait(th)
	}()
	tb.AssertWait(th, new(int))
}

func TestThreadBlockWhileHoldingSpinLockPanics(t *testing.T) {
	tb := NewTable()
	th := New("t")
	th.NoteSpinAcquire()
	defer func() {
		if recover() == nil {
			t.Fatal("thread_block holding a simple lock did not panic")
		}
		th.NoteSpinRelease()
	}()
	tb.AssertWait(th, new(int))
	tb.ThreadBlock(th)
}

func TestThreadSleepAtomicWithUnlock(t *testing.T) {
	// A wakeup arriving exactly while the lock is being released must not
	// be lost: ThreadSleep asserts the wait before calling unlock.
	tb := NewTable()
	ev := new(int)
	var mu sync.Mutex
	mu.Lock()
	th := Go("sleeper", func(self *Thread) {
		r := tb.ThreadSleep(self, ev, mu.Unlock)
		if r != Awakened && r != NotWaiting {
			t.Errorf("ThreadSleep = %v", r)
		}
	})
	// Waker: as soon as it can take the lock, the sleeper has asserted.
	mu.Lock()
	tb.ThreadWakeup(ev)
	mu.Unlock()
	waitTimeout(t, "sleeper join", th.Join)
}

// TestNoLostWakeupStress is the core race-freedom property of the split
// protocol: a producer/consumer pair where the producer wakes after every
// item and the consumer uses assert-unlock-block must never hang.
func TestNoLostWakeupStress(t *testing.T) {
	tb := NewTable()
	ev := new(int)
	var mu sync.Mutex
	items := 0
	const total = 5000
	consumer := Go("consumer", func(self *Thread) {
		consumed := 0
		for consumed < total {
			mu.Lock()
			for items == 0 {
				tb.AssertWait(self, ev)
				mu.Unlock()
				tb.ThreadBlock(self)
				mu.Lock()
			}
			items--
			consumed++
			mu.Unlock()
		}
	})
	producer := Go("producer", func(self *Thread) {
		for i := 0; i < total; i++ {
			mu.Lock()
			items++
			mu.Unlock()
			tb.ThreadWakeup(ev)
		}
	})
	waitTimeout(t, "producer", producer.Join)
	waitTimeout(t, "consumer (lost wakeup?)", consumer.Join)
}

// TestManyEventsManyThreadsStress is the raw -race smoke layer; the
// deterministic schedule-exploration twin is TestSimManyEventsManyThreads
// in sim_test.go.
func TestManyEventsManyThreadsStress(t *testing.T) {
	tb := NewTable()
	const nev = 32
	events := make([]*int, nev)
	for i := range events {
		events[i] = new(int)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Wakers hammer all events.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range events {
					tb.ThreadWakeup(e)
				}
			}
		}()
	}
	var threads []*Thread
	for i := 0; i < 8; i++ {
		ev := events[i%nev]
		threads = append(threads, Go("w", func(self *Thread) {
			for j := 0; j < 60; j++ {
				tb.AssertWait(self, ev)
				tb.ThreadBlock(self)
			}
		}))
	}
	for _, th := range threads {
		waitTimeout(t, "stress waiter", th.Join)
	}
	close(stop)
	wg.Wait()
}

func TestGoJoinPropagatesPanic(t *testing.T) {
	th := Go("boom", func(*Thread) { panic("kaboom") })
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("Join recovered %v, want kaboom", r)
		}
	}()
	th.Join()
}

func TestWaitResultStrings(t *testing.T) {
	if Awakened.String() != "awakened" || Restarted.String() != "restarted" ||
		NotWaiting.String() != "not-waiting" || WaitResult(9).String() != "waitresult(9)" {
		t.Fatal("WaitResult strings wrong")
	}
}

func TestRankTracking(t *testing.T) {
	th := New("t")
	th.PushRank(1)
	th.PushRank(3)
	if r := th.HeldRanks(); len(r) != 2 || r[0] != 1 || r[1] != 3 {
		t.Fatalf("held ranks = %v", r)
	}
	th.PopRank(1)
	if r := th.HeldRanks(); len(r) != 1 || r[0] != 3 {
		t.Fatalf("held ranks after pop = %v", r)
	}
	th.PopRank(3)
	defer func() {
		if recover() == nil {
			t.Fatal("popping unheld rank did not panic")
		}
	}()
	th.PopRank(7)
}

func TestGlobalTableWrappers(t *testing.T) {
	ev := new(int)
	th := New("t")
	AssertWait(th, ev)
	if !Waiting(ev) {
		t.Fatal("global Waiting false after AssertWait")
	}
	if n := ThreadWakeup(ev); n != 1 {
		t.Fatalf("global wakeup woke %d", n)
	}
	if r := ThreadBlock(th); r != NotWaiting {
		t.Fatalf("global ThreadBlock = %v", r)
	}
	AssertWait(th, ev)
	if !ClearWait(th) {
		t.Fatal("global ClearWait failed")
	}
	var mu sync.Mutex
	mu.Lock()
	AssertWaitDone := make(chan struct{})
	th2 := Go("t2", func(self *Thread) {
		ThreadSleep(self, ev, func() { mu.Unlock(); close(AssertWaitDone) })
	})
	<-AssertWaitDone
	mu.Lock()
	ThreadWakeupOne(ev)
	mu.Unlock()
	waitTimeout(t, "global sleeper", th2.Join)
}

func TestTableCounters(t *testing.T) {
	tb := NewTable()
	th := New("counted")
	ev := new(int)
	tb.AssertWait(th, ev)
	woken := tb.ThreadWakeup(ev)
	tb.ThreadBlock(th)
	empty := tb.ThreadWakeup(new(int))
	tb.AssertWait(th, ev)
	cleared := tb.ClearWait(th)
	if woken != 1 || empty != 0 || !cleared {
		t.Fatalf("woken=%d empty=%d cleared=%v", woken, empty, cleared)
	}
	if th.Name() != "counted" || th.String() != "thread(counted)" {
		t.Fatalf("identity strings: %q %q", th.Name(), th.String())
	}
}

func TestSpinAccountingBalance(t *testing.T) {
	th := New("t")
	th.NoteSpinAcquire()
	th.NoteSpinAcquire()
	if th.SpinLocksHeld() != 2 {
		t.Fatalf("held = %d", th.SpinLocksHeld())
	}
	th.NoteSpinRelease()
	th.NoteSpinRelease()
	if th.SpinLocksHeld() != 0 {
		t.Fatalf("held = %d", th.SpinLocksHeld())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	th.NoteSpinRelease()
}
