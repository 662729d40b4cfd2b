package splock

import (
	"fmt"
	"sync"
	"sync/atomic"

	"machlock/internal/hw"
)

// Section 7 of the paper derives a design rule from the interrupt-barrier
// deadlock: "each lock must always be acquired at the same interrupt
// priority level (spl0, splvm, splnet, splclock, etc.), and held at that
// level or higher… This notion of associating a single interrupt priority
// level with each lock is a good design principle."
//
// SPLLock enforces that rule on the simulated machine: it binds itself to
// the SPL of its first acquisition and reports (or, if Fatal, panics on)
// any acquisition at a different level. It also checks the second half of
// the rule — the holder may raise but never lower its SPL below the lock's
// level while holding it — at release time.
type SPLLock struct {
	sim *SimLock

	// Fatal makes violations panic instead of being counted.
	Fatal bool

	mu        sync.Mutex
	bound     bool
	level     hw.Level
	holderSPL hw.Level

	violations atomic.Int64
	lastReport atomic.Value // string
}

// NewSPL creates an SPL-checked simulated simple lock. The lock binds to
// the interrupt priority level of its first acquisition; pass an explicit
// level via Bind to fix it up front.
func NewSPL(m *hw.Machine, p Policy) *SPLLock {
	return &SPLLock{sim: NewSimWith(SimOpts{Machine: m, Algorithm: p})}
}

// Bind fixes the lock's required SPL before first use.
func (l *SPLLock) Bind(level hw.Level) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bound && l.level != level {
		panic(fmt.Sprintf("splock: rebinding SPL lock from %v to %v", l.level, level))
	}
	l.bound = true
	l.level = level
}

// Level returns the bound SPL and whether the lock is bound yet.
func (l *SPLLock) Level() (hw.Level, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.level, l.bound
}

// Lock acquires the lock from cpu, checking that the CPU is at the lock's
// bound SPL. The first acquisition binds the level if Bind was not called.
func (l *SPLLock) Lock(c *hw.CPU) {
	l.check(c, c.SPL())
	l.sim.Lock(c) //machlock:holds — wrapper: the hold escapes to Lock's caller
	l.mu.Lock()
	l.holderSPL = c.SPL()
	l.mu.Unlock()
}

// TryLock makes a single attempt, with the same SPL check.
func (l *SPLLock) TryLock(c *hw.CPU) bool {
	l.check(c, c.SPL())
	if !l.sim.TryLock(c) { //machlock:holds — wrapper: the hold escapes to TryLock's caller
		return false
	}
	l.mu.Lock()
	l.holderSPL = c.SPL()
	l.mu.Unlock()
	return true
}

// Unlock releases the lock, checking that the holder did not lower its SPL
// below the lock's level while holding ("held at that level or higher").
// The paper requires release at the same priority, because complex locks
// built on the interlock lock and unlock it around every operation.
func (l *SPLLock) Unlock(c *hw.CPU) {
	l.mu.Lock()
	level, bound := l.level, l.bound
	l.mu.Unlock()
	if bound && c.SPL() < level {
		l.violate(fmt.Sprintf(
			"splock: cpu %d releasing SPL lock bound to %v while at %v (lowered while held)",
			c.ID(), level, c.SPL()))
	}
	l.sim.Unlock(c)
}

func (l *SPLLock) check(c *hw.CPU, at hw.Level) {
	l.mu.Lock()
	if !l.bound {
		l.bound = true
		l.level = at
		l.mu.Unlock()
		return
	}
	level := l.level
	l.mu.Unlock()
	if at != level {
		l.violate(fmt.Sprintf(
			"splock: cpu %d acquiring SPL lock bound to %v while at %v",
			c.ID(), level, at))
	}
}

func (l *SPLLock) violate(msg string) {
	l.violations.Add(1)
	l.lastReport.Store(msg)
	if l.Fatal {
		panic(msg)
	}
}

// Violations returns the number of SPL-consistency violations observed.
func (l *SPLLock) Violations() int64 { return l.violations.Load() }

// LastViolation returns the most recent violation report, or "".
func (l *SPLLock) LastViolation() string {
	if s, ok := l.lastReport.Load().(string); ok {
		return s
	}
	return ""
}

// Stats exposes the underlying simulated lock's accounting.
func (l *SPLLock) Stats() SimStats { return l.sim.Stats() }
