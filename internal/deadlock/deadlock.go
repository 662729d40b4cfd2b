// Package deadlock implements a wait-for-graph deadlock detector for the
// complex locks of this kernel — debugging machinery in the spirit of the
// paper's design goal that "it should never be necessary to write kernel
// code that contains race conditions": when a locking protocol does go
// wrong, the detector names the cycle instead of leaving a hung machine.
//
// It observes lock events through the cxlock observer fan-out
// (cxlock.AddObserver; see Tracker.Install), maintaining the
// holds multiset (which threads hold which locks) and the wait map (which
// thread waits for which lock). Detect builds the wait-for graph — an
// edge from each waiter to every holder of its awaited lock — and reports
// the cycles it finds.
//
// Both §7.1 deadlocks reproduce under the detector: the vm_map_pageable
// recursive-lock deadlock appears as a cycle through the pageout daemon
// and the wiring thread (see the tests and cmd/deadlockdemo).
//
// The detector is advisory: a cycle among sleepable locks is a true
// deadlock, while a snapshot of spinning waiters may be transient, so
// DetectStable samples repeatedly and reports only cycles present in
// every sample.
package deadlock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
)

// Tracker is the observer-backed state. Create with NewTracker and
// install with Install (which registers it via cxlock.AddObserver, so
// it coexists with the trace layer and the monitor); uninstall with
// Uninstall.
type Tracker struct {
	mu sync.Mutex
	// holds[{lock, thread}] = number of holds. Flat, so an uncontended
	// acquire/release pair on a lock nobody holds allocates nothing: the
	// entry's map slot is reused, not a fresh per-lock inner map.
	holds map[holdKey]int
	// waits[thread] = lock the thread is currently waiting for.
	waits map[*sched.Thread]*cxlock.Lock
	// names gives locks human-readable labels for reports.
	names map[*cxlock.Lock]string
}

// holdKey names one (lock, holder) pair of the holds multiset.
type holdKey struct {
	lock   *cxlock.Lock
	thread *sched.Thread
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		holds: make(map[holdKey]int),
		waits: make(map[*sched.Thread]*cxlock.Lock),
		names: make(map[*cxlock.Lock]string),
	}
}

// Name labels a lock in reports.
func (tr *Tracker) Name(l *cxlock.Lock, name string) {
	tr.mu.Lock()
	tr.names[l] = name
	tr.mu.Unlock()
}

func (tr *Tracker) lockName(l *cxlock.Lock) string {
	if n, ok := tr.names[l]; ok {
		return n
	}
	return fmt.Sprintf("lock(%p)", l)
}

// Acquired implements cxlock.Observer.
func (tr *Tracker) Acquired(l *cxlock.Lock, t *sched.Thread) {
	tr.mu.Lock()
	tr.holds[holdKey{l, t}]++
	tr.mu.Unlock()
}

// Released implements cxlock.Observer.
func (tr *Tracker) Released(l *cxlock.Lock, t *sched.Thread) {
	tr.mu.Lock()
	k := holdKey{l, t}
	if tr.holds[k] > 1 {
		tr.holds[k]--
	} else {
		delete(tr.holds, k)
	}
	tr.mu.Unlock()
}

// Waiting implements cxlock.Observer.
func (tr *Tracker) Waiting(l *cxlock.Lock, t *sched.Thread) {
	tr.mu.Lock()
	tr.waits[t] = l
	tr.mu.Unlock()
}

// DoneWaiting implements cxlock.Observer.
func (tr *Tracker) DoneWaiting(l *cxlock.Lock, t *sched.Thread) {
	tr.mu.Lock()
	if tr.waits[t] == l {
		delete(tr.waits, t)
	}
	tr.mu.Unlock()
}

// Cycle is one detected deadlock cycle: threads and the locks linking
// them, formatted for humans by String.
type Cycle struct {
	Threads []*sched.Thread
	Locks   []*cxlock.Lock
	text    string
}

// String renders the cycle: t1 —waits→ L1 —held-by→ t2 —waits→ …
func (c Cycle) String() string { return c.text }

// Detect takes one snapshot of the wait-for graph and returns the cycles
// found. A reported cycle among sleepable locks is a real deadlock; among
// spinning waiters it may be a transient (use DetectStable).
func (tr *Tracker) Detect() []Cycle {
	tr.mu.Lock()
	// Build thread → threads-it-waits-on edges, remembering the lock.
	type edge struct {
		to   *sched.Thread
		lock *cxlock.Lock
	}
	edges := make(map[*sched.Thread][]edge)
	names := make(map[*cxlock.Lock]string)
	for k := range tr.holds {
		names[k.lock] = tr.lockName(k.lock)
	}
	for t, l := range tr.waits {
		for k := range tr.holds {
			if k.lock == l && k.thread != t {
				edges[t] = append(edges[t], edge{to: k.thread, lock: l})
			}
		}
	}
	for _, l := range tr.waits {
		names[l] = tr.lockName(l)
	}
	tr.mu.Unlock()

	// DFS cycle detection over the snapshot.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*sched.Thread]int)
	var cycles []Cycle
	seen := make(map[string]bool)

	var stackT []*sched.Thread
	var stackL []*cxlock.Lock
	var dfs func(t *sched.Thread)
	dfs = func(t *sched.Thread) {
		color[t] = gray
		for _, e := range edges[t] {
			switch color[e.to] {
			case white:
				stackT = append(stackT, t)
				stackL = append(stackL, e.lock)
				dfs(e.to)
				stackT = stackT[:len(stackT)-1]
				stackL = stackL[:len(stackL)-1]
			case gray:
				// Found a cycle: unwind the stack back to e.to.
				start := 0
				for i, st := range stackT {
					if st == e.to {
						start = i
						break
					}
				}
				ct := append(append([]*sched.Thread{}, stackT[start:]...), t)
				cl := append(append([]*cxlock.Lock{}, stackL[start:]...), e.lock)
				c := renderCycle(ct, cl, names)
				if !seen[c.text] {
					seen[c.text] = true
					cycles = append(cycles, c)
				}
			}
		}
		color[t] = black
	}
	// Deterministic iteration order for reproducible reports.
	var roots []*sched.Thread
	for t := range edges {
		roots = append(roots, t)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Name() < roots[j].Name() })
	for _, t := range roots {
		if color[t] == white {
			dfs(t)
		}
	}
	return cycles
}

func renderCycle(ts []*sched.Thread, ls []*cxlock.Lock, names map[*cxlock.Lock]string) Cycle {
	// Rotate so the lexicographically smallest thread name leads,
	// giving every representation of the same cycle one canonical text.
	min := 0
	for i := range ts {
		if ts[i].Name() < ts[min].Name() {
			min = i
		}
	}
	rt := append(append([]*sched.Thread{}, ts[min:]...), ts[:min]...)
	rl := append(append([]*cxlock.Lock{}, ls[min:]...), ls[:min]...)

	var sb strings.Builder
	for i, t := range rt {
		name := names[rl[i]]
		if name == "" {
			name = fmt.Sprintf("lock(%p)", rl[i])
		}
		fmt.Fprintf(&sb, "%s —waits→ %s —held-by→ ", t.Name(), name)
	}
	sb.WriteString(rt[0].Name())
	return Cycle{Threads: rt, Locks: rl, text: sb.String()}
}

// DetectStable samples the graph `samples` times, `interval` apart, and
// returns only the cycles present in every sample — filtering out
// transient spin-wait cycles that resolve on their own.
func (tr *Tracker) DetectStable(samples int, interval time.Duration) []Cycle {
	if samples < 1 {
		samples = 1
	}
	counts := make(map[string]int)
	byText := make(map[string]Cycle)
	for i := 0; i < samples; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		for _, c := range tr.Detect() {
			counts[c.text]++
			byText[c.text] = c
		}
	}
	var stable []Cycle
	for text, n := range counts {
		if n == samples {
			stable = append(stable, byText[text])
		}
	}
	sort.Slice(stable, func(i, j int) bool { return stable[i].text < stable[j].text })
	return stable
}

// Snapshot returns a human-readable dump of current holds and waits.
func (tr *Tracker) Snapshot() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sb strings.Builder
	var lines []string
	for k, n := range tr.holds {
		lines = append(lines, fmt.Sprintf("%s held by %s (x%d)", tr.lockName(k.lock), k.thread.Name(), n))
	}
	for t, l := range tr.waits {
		lines = append(lines, fmt.Sprintf("%s waiting for %s", t.Name(), tr.lockName(l)))
	}
	sort.Strings(lines)
	for _, ln := range lines {
		sb.WriteString(ln)
		sb.WriteByte('\n')
	}
	return sb.String()
}
