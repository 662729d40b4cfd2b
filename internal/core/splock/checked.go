package splock

import (
	"fmt"
	"sync"
	"sync/atomic"

	"machlock/internal/trace"
)

// Holder is what a checked lock knows about its acquirer. *sched.Thread
// implements it; the indirection keeps splock free of a dependency on the
// scheduler. NoteSpinAcquire/NoteSpinRelease maintain the per-thread count
// that makes sched.ThreadBlock panic while simple locks are held.
type Holder interface {
	NoteSpinAcquire()
	NoteSpinRelease()
	Name() string
}

// Checked is a debugging simple lock: it behaves like Lock but records its
// holder, panics on double acquisition by the same holder (self-deadlock),
// panics on release by a non-holder, and keeps acquisition statistics. It
// corresponds to the debug/statistics variant the paper says the simple
// lock structure was designed to admit.
type Checked struct {
	name  string
	class *trace.Class
	l     Lock

	mu         sync.Mutex
	holder     Holder
	acquiredAt int64 // trace.Now stamp; guarded by mu, set only while tracing

	acquisitions atomic.Int64
	contended    atomic.Int64
}

// NewChecked creates a named checked lock, registered as a spin class with
// the observability layer.
func NewChecked(name string) *Checked {
	return &Checked{name: name, class: trace.NewClass("splock", name, trace.KindSpin)}
}

// Name returns the lock's name.
func (c *Checked) Name() string { return c.name }

// Lock acquires the lock for h, panicking if h already holds it.
func (c *Checked) Lock(h Holder) {
	if h == nil {
		panic("splock: checked lock acquired with nil holder")
	}
	c.mu.Lock()
	if c.holder == h {
		c.mu.Unlock()
		panic(fmt.Sprintf("splock: %s: recursive simple_lock by %s (self-deadlock)",
			c.name, h.Name()))
	}
	c.mu.Unlock()
	tr := c.class.On()
	var start, now, waitNs int64
	contended := false
	if !c.l.TryLock() { //machlock:holds — wrapper: the hold escapes to Lock's caller
		c.contended.Add(1)
		contended = true
		if tr {
			start = trace.Now()
			c.class.WaitingAt(start, 0)
		}
		c.l.Lock() //machlock:holds — wrapper: the hold escapes to Lock's caller
	}
	if tr {
		now = trace.Now()
		if contended {
			waitNs = now - start
			c.class.DoneWaitingAt(now, 0, waitNs)
		}
	}
	c.mu.Lock()
	c.holder = h
	c.acquiredAt = now
	c.mu.Unlock()
	h.NoteSpinAcquire()
	c.acquisitions.Add(1)
	c.class.AcquiredAt(now, 0, contended, waitNs)
}

// TryLock makes a single attempt for h.
func (c *Checked) TryLock(h Holder) bool {
	if h == nil {
		panic("splock: checked lock acquired with nil holder")
	}
	if !c.l.TryLock() { //machlock:holds — wrapper: the hold escapes to TryLock's caller
		return false
	}
	var now int64
	if c.class.On() {
		now = trace.Now()
	}
	c.mu.Lock()
	c.holder = h
	c.acquiredAt = now
	c.mu.Unlock()
	h.NoteSpinAcquire()
	c.acquisitions.Add(1)
	c.class.AcquiredAt(now, 0, false, 0)
	return true
}

// Unlock releases the lock, panicking if h is not the holder.
func (c *Checked) Unlock(h Holder) {
	c.mu.Lock()
	if c.holder != h {
		cur := "nobody"
		if c.holder != nil {
			cur = c.holder.Name()
		}
		c.mu.Unlock()
		panic(fmt.Sprintf("splock: %s: unlock by %s but held by %s",
			c.name, h.Name(), cur))
	}
	c.holder = nil
	holdNs := int64(-1)
	var now int64
	if at := c.acquiredAt; at != 0 {
		c.acquiredAt = 0
		now = trace.Now()
		holdNs = now - at
	}
	c.mu.Unlock()
	c.l.Unlock()
	h.NoteSpinRelease()
	c.class.ReleasedAt(now, 0, holdNs)
}

// HolderName returns the name of the current holder, or "" if unheld.
func (c *Checked) HolderName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holder == nil {
		return ""
	}
	return c.holder.Name()
}

// Acquisitions returns the number of successful acquisitions.
func (c *Checked) Acquisitions() int64 { return c.acquisitions.Load() }

// Contended returns the number of acquisitions that did not succeed on the
// first attempt.
func (c *Checked) Contended() int64 { return c.contended.Load() }
