package zalloc

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
)

type element struct{ id int }

func TestTryAllocToCapacity(t *testing.T) {
	z := NewZone[element]("el", 3, nil)
	var got []*element
	for i := 0; i < 3; i++ {
		el, err := z.TryAlloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, el)
	}
	if _, err := z.TryAlloc(); !errors.Is(err, ErrZoneExhausted) {
		t.Fatalf("over-capacity alloc = %v", err)
	}
	s := z.Stats()
	if s.InUse != 3 || s.Made != 3 || s.Allocs != 3 {
		t.Fatalf("stats = %+v", s)
	}
	z.Free(got[0])
	if el, err := z.TryAlloc(); err != nil || el != got[0] {
		t.Fatalf("recycle: %v %v (LIFO expected)", el, err)
	}
}

func TestCustomConstructor(t *testing.T) {
	n := 0
	z := NewZone("el", 2, func() *element {
		n++
		return &element{id: n}
	})
	a, _ := z.TryAlloc()
	b, _ := z.TryAlloc()
	if a.id != 1 || b.id != 2 {
		t.Fatalf("ids = %d, %d", a.id, b.id)
	}
}

func TestAllocBlocksUntilFree(t *testing.T) {
	z := NewZone[element]("el", 1, nil)
	held, _ := z.TryAlloc()

	got := make(chan *element, 1)
	waiter := sched.Go("alloc", func(self *sched.Thread) {
		got <- z.Alloc(self)
	})
	deadline := time.Now().Add(2 * time.Second)
	for waiter.Blocks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("allocator never blocked on exhausted zone")
		}
		time.Sleep(time.Millisecond)
	}
	z.Free(held)
	waiter.Join()
	if el := <-got; el != held {
		t.Fatalf("woken allocator got %v", el)
	}
	if z.Stats().Blocked != 1 {
		t.Fatalf("blocked count = %d", z.Stats().Blocked)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	z := NewZone[element]("el", 2, nil)
	el, _ := z.TryAlloc()
	z.Free(el)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	z.Free(el)
}

func TestFreeNilPanics(t *testing.T) {
	z := NewZone[element]("el", 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("nil free did not panic")
		}
	}()
	z.Free(nil)
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewZone[element]("el", 0, nil)
}

// TestAllocUnderSleepLockIsLegal exercises the paper's exact pattern: a
// blocking allocation while holding a SLEEPABLE complex lock is fine; the
// same allocation under a checked simple lock would panic in ThreadBlock.
func TestAllocUnderSleepLockIsLegal(t *testing.T) {
	z := NewZone[element]("el", 1, nil)
	held, _ := z.TryAlloc()
	l := cxlock.NewWith(cxlock.Options{Sleep: true})

	done := make(chan struct{})
	holder := sched.Go("holder", func(self *sched.Thread) {
		l.Write(self) // sleep lock held across the blocking alloc
		el := z.Alloc(self)
		z.Free(el)
		l.Done(self)
		close(done)
	})
	deadline := time.Now().Add(2 * time.Second)
	for holder.Blocks() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never blocked in alloc")
		}
		time.Sleep(time.Millisecond)
	}
	z.Free(held)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("alloc under sleep lock hung")
	}
}

func TestConcurrentChurn(t *testing.T) {
	z := NewZone[element]("el", 4, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := sched.New("w")
			for j := 0; j < 500; j++ {
				el := z.Alloc(self)
				z.Free(el)
			}
		}()
	}
	wg.Wait()
	s := z.Stats()
	if s.InUse != 0 {
		t.Fatalf("in use after churn = %d", s.InUse)
	}
	if s.Allocs != 8*500 || s.Frees != 8*500 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Made > 4 {
		t.Fatalf("zone overgrew capacity: made %d", s.Made)
	}
}

// Property: for any interleaving of try-allocs and frees, in-use never
// exceeds capacity and equals allocs-frees.
func TestAccountingQuick(t *testing.T) {
	f := func(ops []bool) bool {
		z := NewZone[element]("el", 4, nil)
		var held []*element
		for _, alloc := range ops {
			if alloc {
				el, err := z.TryAlloc()
				if err == nil {
					held = append(held, el)
				} else if len(held) < 4 {
					return false // refused below capacity
				}
			} else if len(held) > 0 {
				z.Free(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		s := z.Stats()
		return s.InUse == len(held) && s.InUse <= 4 &&
			int64(s.InUse) == s.Allocs-s.Frees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
