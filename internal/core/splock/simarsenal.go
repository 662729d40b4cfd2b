package splock

import (
	"sync"
	"sync/atomic"

	"machlock/internal/hw"
)

// This file is the SimLock side of the algorithm arsenal: queue, cohort,
// and adaptive locks over simulated hw cells, so experiment E14 can count
// the interconnect traffic each algorithm generates the same way E1 does
// for TAS/TTAS.
//
// The split of responsibilities mirrors how the coherence argument works:
// everything the interconnect would see — the lock word, each waiter's
// local spin flag, handoff stores, the wakeup IPI — is a charged hw.Cell
// access; the queue ORDER and park bookkeeping live behind a host mutex,
// standing in for the per-waiter qnode pointers a real MCS lock chases
// (which are local accesses on the owner's own cache lines). A parked
// adaptive waiter polls only host state: a sleeping thread generates no
// interconnect traffic, which is the entire point of parking.
//
// Per-CPU engagement state makes SpinOnce work for the arsenal exactly as
// it does for TAS/TTAS: the first step from an idle CPU engages it
// (enqueues, starts local spinning), each further step is one spin
// iteration of the policy, and the step that observes the grant takes the
// lock over. Experiments drive this deterministically.

// simPhase is a CPU's engagement state on one arsenal SimLock.
type simPhase uint8

const (
	simIdle      simPhase = iota
	simSpinLocal          // queue: spinning on own flag cell; cohort: on local word; adaptive: on lock word
	simSpinGlob           // cohort: local head, spinning on the global word
	simParked             // adaptive: parked, polling host wake state only
)

// simCPUState is one CPU's per-lock arsenal state.
type simCPUState struct {
	phase simPhase
	spins int      // adaptive: spin iterations since engagement
	wcell *hw.Cell // queue: the flag this waiter spins on / is granted through
	woken bool     // adaptive: releaser posted our wakeup
}

type simExt struct {
	kind Policy
	m    *hw.Machine

	mu sync.Mutex
	st []simCPUState // indexed by CPU id

	// queue/adaptive bookkeeping (host side; charged traffic goes
	// through the cells).
	queue  []int // CPU ids in FIFO arrival order (queue kind)
	holder int   // CPU id of the current holder, -1 when free
	parked []int // adaptive: parked CPU ids in park order

	// cohort state: one local lock word per machine cell plus the global
	// word (l.cell). localWaiters counts engaged CPUs per domain so a
	// releaser knows whether a cohort successor exists (the real lock
	// reads its local queue's next pointer — a local access).
	locals        []*hw.Cell
	localWaiters  []int
	globalOwned   []bool // global lock handed over with the local word
	handoffBudget int
	localChain    int  // consecutive same-domain handoffs
	tryHeld       bool // cohort: holder entered via TryLock (no local word held)

	spinBudget int // adaptive

	handoffs atomic.Int64
	parks    atomic.Int64
}

// Tuning defaults for the simulated arsenal; chosen for the simulation's
// scale, not tuned for any particular host.
const (
	// DefaultSpinBudget is how long an Adaptive waiter spins before
	// parking. Roughly: long enough to cover a short critical section
	// without a context switch, short enough that a preempted holder
	// does not burn a processor.
	DefaultSpinBudget = 128
	// DefaultHandoffBudget bounds consecutive intra-cell cohort
	// handoffs, the fairness/locality trade dial.
	DefaultHandoffBudget = 16
)

func newSimExt(m *hw.Machine, o SimOpts) *simExt {
	e := &simExt{
		kind:   o.Algorithm,
		m:      m,
		st:     make([]simCPUState, m.NCPU()),
		holder: -1,
	}
	switch o.Algorithm {
	case Cohort:
		e.locals = make([]*hw.Cell, m.NCells())
		for i := range e.locals {
			e.locals[i] = m.NewCell(0)
		}
		e.localWaiters = make([]int, m.NCells())
		e.globalOwned = make([]bool, m.NCells())
		e.handoffBudget = o.HandoffBudget
		if e.handoffBudget <= 0 {
			e.handoffBudget = DefaultHandoffBudget
		}
	case Adaptive:
		e.spinBudget = o.SpinBudget
		if e.spinBudget <= 0 {
			e.spinBudget = DefaultSpinBudget
		}
	}
	return e
}

// lockExt blocks until the lock is acquired, driving the policy state
// machine one step at a time. Parked adaptive waiters burn no simulated
// traffic while they wait (the host Gosched stands in for the scheduler
// running something else).
func (l *SimLock) lockExt(c *hw.CPU) {
	if l.extStep(c) {
		return
	}
	for {
		l.spin(c)
		if l.extStep(c) {
			return
		}
	}
}

// unlockExt releases per the policy.
func (l *SimLock) unlockExt(c *hw.CPU) {
	e := l.ext
	switch e.kind {
	case Queue:
		e.mu.Lock()
		if e.holder != c.ID() {
			e.mu.Unlock()
			panic("splock: unlock of simulated queue lock by non-holder")
		}
		if len(e.queue) == 0 {
			e.holder = -1
			e.mu.Unlock()
			// MCS tail CAS back to free: the release's one RMW.
			l.cell.CompareAndSwap(c, int64(c.ID()+1), 0)
			return
		}
		w := e.queue[0]
		e.queue = e.queue[1:]
		e.holder = w
		wc := e.st[w].wcell
		e.mu.Unlock()
		e.handoffs.Add(1)
		// Grant store into the successor's flag cell: invalidates its
		// locally cached copy; its next (and final) spin load refills it.
		wc.Store(c, 0)
	case Adaptive:
		e.mu.Lock()
		if e.holder != c.ID() {
			e.mu.Unlock()
			panic("splock: unlock of simulated adaptive lock by non-holder")
		}
		e.holder = -1
		var wakeCell *hw.Cell
		if len(e.parked) > 0 {
			w := e.parked[0]
			e.parked = e.parked[1:]
			e.st[w].woken = true
			wakeCell = e.st[w].wcell
			e.handoffs.Add(1)
		}
		e.mu.Unlock()
		l.cell.Store(c, 0)
		if wakeCell != nil {
			// The wakeup IPI: one interconnect transaction to the
			// sleeper's cell, whose re-check load then refills it.
			wakeCell.Store(c, 0)
		}
	case Cohort:
		e.mu.Lock()
		if e.holder != c.ID() {
			e.mu.Unlock()
			panic("splock: unlock of simulated cohort lock by non-holder")
		}
		d := c.CellID()
		e.holder = -1
		if e.tryHeld {
			// A TryLock holder owns only the global word: release it and
			// reset the handoff chain; local queues proceed on their own.
			e.tryHeld = false
			e.localChain = 0
			e.mu.Unlock()
			l.cell.Store(c, 0)
			return
		}
		handoff := e.localWaiters[d] > 0 && e.localChain < e.handoffBudget
		if handoff {
			e.localChain++
			e.globalOwned[d] = true
			e.handoffs.Add(1)
		} else {
			e.localChain = 0
			e.globalOwned[d] = false
		}
		e.mu.Unlock()
		if !handoff {
			// Release the global word; the next holder's acquisition
			// moves its line (cross-cell when from another domain).
			l.cell.Store(c, 0)
		}
		// Release the local word either way; it never leaves the domain.
		e.locals[d].Store(c, 0)
	}
}

// trylockExt makes one attempt without engaging in any queue.
func (l *SimLock) trylockExt(c *hw.CPU) bool {
	e := l.ext
	switch e.kind {
	case Queue:
		e.mu.Lock()
		if e.holder != -1 || len(e.queue) > 0 {
			e.mu.Unlock()
			// The failed tail CAS still owned the line.
			l.cell.CompareAndSwap(c, 0, 0)
			return false
		}
		e.holder = c.ID()
		e.mu.Unlock()
		l.cell.CompareAndSwap(c, 0, int64(c.ID()+1))
		l.acquired(true)
		return true
	case Adaptive:
		e.mu.Lock()
		free := e.holder == -1
		if free {
			e.holder = c.ID()
		}
		e.mu.Unlock()
		if !free {
			l.cell.CompareAndSwap(c, 0, 0) // failed CAS traffic
			return false
		}
		l.cell.CompareAndSwap(c, 0, 1)
		l.acquired(true)
		return true
	case Cohort:
		e.mu.Lock()
		free := e.holder == -1 && l.cell.Value() == 0
		if free {
			e.holder = c.ID()
			e.tryHeld = true
		}
		e.mu.Unlock()
		if !free {
			l.cell.CompareAndSwap(c, 0, 0)
			return false
		}
		l.cell.CompareAndSwap(c, 0, 1)
		l.acquired(true)
		return true
	}
	return false
}

// extStep drives one policy step for CPU c: engaging when idle, one spin
// iteration while waiting. It returns true when this step acquired the
// lock. The caller accounts spin loops for failed steps.
func (l *SimLock) extStep(c *hw.CPU) bool {
	e := l.ext
	id := c.ID()
	switch e.kind {
	case Queue:
		return l.stepQueue(c, id)
	case Adaptive:
		return l.stepAdaptive(c, id)
	case Cohort:
		return l.stepCohort(c, id)
	}
	return false
}

func (l *SimLock) stepQueue(c *hw.CPU, id int) bool {
	e := l.ext
	st := &e.st[id]
	if st.phase == simIdle {
		// Engage: one atomic swap on the tail, then either immediate
		// ownership (queue was empty) or local spinning on our own cell.
		e.mu.Lock()
		if e.holder == -1 && len(e.queue) == 0 {
			e.holder = id
			e.mu.Unlock()
			l.cell.Swap(c, int64(id+1))
			l.acquired(true)
			return true
		}
		st.wcell = e.m.NewCell(1)
		e.queue = append(e.queue, id)
		e.mu.Unlock()
		l.cell.Swap(c, int64(id+1))
		st.phase = simSpinLocal
		// Prime the local copy: the first load of our own flag fills the
		// line; every subsequent spin is a local hit.
		st.wcell.Load(c)
		return false
	}
	if st.wcell.Load(c) == 0 {
		st.phase = simIdle
		st.wcell = nil
		l.acquired(false)
		return true
	}
	return false
}

func (l *SimLock) stepAdaptive(c *hw.CPU, id int) bool {
	e := l.ext
	st := &e.st[id]
	switch st.phase {
	case simIdle:
		st.spins = 0
		// TTAS first touch: test, then set if free.
		if l.cell.Load(c) == 0 {
			e.mu.Lock()
			free := e.holder == -1
			if free {
				e.holder = id
			}
			e.mu.Unlock()
			if free {
				l.cell.Swap(c, 1)
				l.acquired(true)
				return true
			}
		}
		st.phase = simSpinLocal
		return false
	case simSpinLocal:
		st.spins++
		if st.spins > e.spinBudget {
			// Budget exhausted: park. The wcell is where the releaser's
			// wakeup lands; no further traffic until then.
			st.wcell = e.m.NewCell(1)
			st.woken = false
			e.mu.Lock()
			e.parked = append(e.parked, id)
			e.mu.Unlock()
			e.parks.Add(1)
			st.phase = simParked
			return false
		}
		if l.cell.Load(c) == 0 {
			e.mu.Lock()
			free := e.holder == -1
			if free {
				e.holder = id
			}
			e.mu.Unlock()
			if free {
				l.cell.Swap(c, 1)
				st.phase = simIdle
				l.acquired(false)
				return true
			}
		}
		return false
	case simParked:
		e.mu.Lock()
		woken := st.woken
		e.mu.Unlock()
		if !woken {
			return false // parked: zero interconnect traffic
		}
		// Woken: read the wakeup cell (refill), then take the lock the
		// releaser reserved by waking exactly one sleeper.
		st.wcell.Load(c)
		st.wcell = nil
		e.mu.Lock()
		free := e.holder == -1
		if free {
			e.holder = id
		} else {
			// Someone (a spinner) beat us between wake and here; go back
			// to spinning with a fresh budget.
			st.woken = false
			st.spins = 0
			st.phase = simSpinLocal
		}
		e.mu.Unlock()
		if !free {
			return false
		}
		l.cell.Swap(c, 1)
		st.phase = simIdle
		l.acquired(false)
		return true
	}
	return false
}

func (l *SimLock) stepCohort(c *hw.CPU, id int) bool {
	e := l.ext
	st := &e.st[id]
	d := c.CellID()
	switch st.phase {
	case simIdle:
		e.mu.Lock()
		e.localWaiters[d]++
		e.mu.Unlock()
		st.phase = simSpinLocal
		return false
	case simSpinLocal:
		// TTAS on the domain-local word; its line never leaves the cell.
		if e.locals[d].Load(c) != 0 {
			return false
		}
		if e.locals[d].Swap(c, 1) != 0 {
			return false
		}
		// Local head. Did a same-domain predecessor hand the global over?
		e.mu.Lock()
		owned := e.globalOwned[d]
		if owned {
			e.globalOwned[d] = false
			e.holder = id
			e.localWaiters[d]--
		}
		e.mu.Unlock()
		if owned {
			st.phase = simIdle
			l.acquired(false)
			return true
		}
		st.phase = simSpinGlob
		return false
	case simSpinGlob:
		// TTAS on the global word, contending only with other domains'
		// local heads.
		if l.cell.Load(c) != 0 {
			return false
		}
		e.mu.Lock()
		free := e.holder == -1 && l.cell.Value() == 0
		if free {
			e.holder = id
			e.localWaiters[d]--
		}
		e.mu.Unlock()
		if !free {
			return false
		}
		l.cell.Swap(c, 1)
		st.phase = simIdle
		l.acquired(false)
		return true
	}
	return false
}
