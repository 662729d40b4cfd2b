package cxlock

import (
	"sync"
	"sync/atomic"

	"machlock/internal/sched"
)

// Observer receives lock-event callbacks for debugging tools (the
// wait-for-graph deadlock detector in internal/deadlock, the continuous
// monitor in internal/monitor). Callbacks are invoked outside the lock's
// interlock with a non-nil thread identity; anonymous (nil-thread)
// acquisitions are invisible to observers.
//
// Semantics are a per-(thread, lock) hold multiset: Acquired adds one
// hold, Released removes one. Upgrades and downgrades do not change the
// hold count (one hold changes mode). Waiting/DoneWaiting bracket a
// thread's wait for the lock. Acquisitions taken on the ReaderBias fast
// path emit the same Acquired/Released pair as interlocked ones, so a
// biased reader's hold is never invisible to an observer (bias_test.go and
// internal/deadlock pin this).
//
// Multiple observers may be installed simultaneously (AddObserver); each
// event fans out to every registered observer in installation order. An
// observer that needs exclusive state (the deadlock tracker's multisets)
// therefore must tolerate other observers seeing the same events — they
// all do, since events are delivered to each observer independently.
type Observer interface {
	Acquired(l *Lock, t *sched.Thread)
	Released(l *Lock, t *sched.Thread)
	Waiting(l *Lock, t *sched.Thread)
	DoneWaiting(l *Lock, t *sched.Thread)
}

// observers is the registered observer list: an immutable slice swapped
// atomically on Add/Remove (copy-on-write), nil when empty so the
// disabled fast path stays one atomic load and a nil check per operation.
var observers atomic.Pointer[[]Observer]

// observersMu serializes list mutations (Add/Remove); event delivery
// never takes it.
var observersMu sync.Mutex

// AddObserver appends o to the observer list. Install before the locks
// being observed are in use; events from operations already in flight may
// be missed. Adding the same observer twice delivers its events twice.
func AddObserver(o Observer) {
	if o == nil {
		panic("cxlock: AddObserver(nil)")
	}
	observersMu.Lock()
	defer observersMu.Unlock()
	addLocked(o)
}

// RemoveObserver removes the first registered occurrence of o (comparing
// observer identity). Removing an observer that is not installed is a
// no-op. Events already fanning out when Remove returns may still be
// delivered to o.
func RemoveObserver(o Observer) {
	observersMu.Lock()
	defer observersMu.Unlock()
	removeLocked(o)
}

func addLocked(o Observer) {
	var next []Observer
	if cur := observers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, o)
	observers.Store(&next)
}

func removeLocked(o Observer) {
	cur := observers.Load()
	if cur == nil {
		return
	}
	for i, x := range *cur {
		if x == o {
			next := append(append([]Observer{}, (*cur)[:i]...), (*cur)[i+1:]...)
			if len(next) == 0 {
				observers.Store(nil)
			} else {
				observers.Store(&next)
			}
			return
		}
	}
}

func obAcquired(l *Lock, t *sched.Thread) {
	if t == nil {
		return
	}
	if obs := observers.Load(); obs != nil {
		for _, o := range *obs {
			o.Acquired(l, t)
		}
	}
}

func obReleased(l *Lock, t *sched.Thread) {
	if t == nil {
		return
	}
	if obs := observers.Load(); obs != nil {
		for _, o := range *obs {
			o.Released(l, t)
		}
	}
}

func obWaiting(l *Lock, t *sched.Thread) {
	if t == nil {
		return
	}
	if obs := observers.Load(); obs != nil {
		for _, o := range *obs {
			o.Waiting(l, t)
		}
	}
}

func obDoneWaiting(l *Lock, t *sched.Thread) {
	if t == nil {
		return
	}
	if obs := observers.Load(); obs != nil {
		for _, o := range *obs {
			o.DoneWaiting(l, t)
		}
	}
}
