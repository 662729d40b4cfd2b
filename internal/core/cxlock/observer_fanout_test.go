package cxlock

import (
	"sync/atomic"
	"testing"

	"machlock/internal/sched"
)

// countObserver tallies events; identity-distinct instances let the tests
// verify fan-out and selective removal.
type countObserver struct {
	acquired, released, waiting, doneWaiting atomic.Int64
}

func (c *countObserver) Acquired(l *Lock, t *sched.Thread)    { c.acquired.Add(1) }
func (c *countObserver) Released(l *Lock, t *sched.Thread)    { c.released.Add(1) }
func (c *countObserver) Waiting(l *Lock, t *sched.Thread)     { c.waiting.Add(1) }
func (c *countObserver) DoneWaiting(l *Lock, t *sched.Thread) { c.doneWaiting.Add(1) }

func drainObservers(t *testing.T) {
	t.Helper()
	if obs := observers.Load(); obs != nil {
		t.Fatalf("test started with observers installed: %d", len(*obs))
	}
}

func TestAddObserverFansOut(t *testing.T) {
	drainObservers(t)
	a, b, c := &countObserver{}, &countObserver{}, &countObserver{}
	AddObserver(a)
	AddObserver(b)
	AddObserver(c)
	defer RemoveObserver(a)
	defer RemoveObserver(b)
	defer RemoveObserver(c)

	l := NewWith(Options{})
	self := sched.New("fanout")
	l.Write(self)
	l.Done(self)

	for i, o := range []*countObserver{a, b, c} {
		if o.acquired.Load() != 1 || o.released.Load() != 1 {
			t.Fatalf("observer %d missed events: acquired=%d released=%d",
				i, o.acquired.Load(), o.released.Load())
		}
	}
}

func TestRemoveObserverIsSelective(t *testing.T) {
	drainObservers(t)
	a, b := &countObserver{}, &countObserver{}
	AddObserver(a)
	AddObserver(b)
	defer RemoveObserver(b)
	RemoveObserver(a)

	l := NewWith(Options{})
	self := sched.New("selective")
	l.Read(self)
	l.Done(self)

	if a.acquired.Load() != 0 {
		t.Fatalf("removed observer still receiving events: %d", a.acquired.Load())
	}
	if b.acquired.Load() != 1 {
		t.Fatalf("remaining observer lost events: %d", b.acquired.Load())
	}
	// Removing an observer that is not installed must be a no-op.
	RemoveObserver(a)
	RemoveObserver(&countObserver{})
}
