package splock

import (
	"fmt"
	"sync"

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
// and panics on release by a non-holder. It corresponds to the debug
// variant the paper says the simple lock structure was designed to admit.
// Its statistics are its class's, like any classed Lock's: the inner lock
// is registered under the checked lock's name, so trace.Lookup("splock",
// name).Snapshot() reads them.
type Checked struct {
	name string
	l    Lock

	mu     sync.Mutex
	holder Holder
}

// NewChecked creates a named checked lock, registered as a spin class with
// the observability layer.
func NewChecked(name string) *Checked {
	c := &Checked{name: name}
	c.l.InitWith(Opts{Class: trace.NewClass("splock", name, trace.KindSpin), Name: name})
	return c
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
	c.l.Lock() //machlock:holds — wrapper: the hold escapes to Lock's caller
	c.setHolder(h)
}

// TryLock makes a single attempt for h.
func (c *Checked) TryLock(h Holder) bool {
	if h == nil {
		panic("splock: checked lock acquired with nil holder")
	}
	if !c.l.TryLock() { //machlock:holds — wrapper: the hold escapes to TryLock's caller
		return false
	}
	c.setHolder(h)
	return true
}

// setHolder records h as the holder of a just-acquired lock.
func (c *Checked) setHolder(h Holder) {
	c.mu.Lock()
	c.holder = h
	c.mu.Unlock()
	h.NoteSpinAcquire()
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
	c.mu.Unlock()
	c.l.Unlock()
	h.NoteSpinRelease()
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
