// Package splock implements Mach's simple locks: spinning (non-blocking)
// mutual exclusion locks, the machine-dependent foundation on which every
// other locking protocol in the kernel is built (paper Section 4 and
// Appendix A).
//
// Three implementations are provided:
//
//   - Lock: the production lock over Go's native atomics. Its acquisition
//     sequence is the paper's refined policy — one test-and-set attempt
//     first, falling back to test-and-test-and-set spinning — because "most
//     locks in a well designed system are acquired on the first attempt".
//     The one alternative, an MCS queue lock (Opts{Algorithm: Queue}),
//     serves the kernel's two central queue-lock customers.
//   - SimLock: the instrumented lock over a simulated hw.Cell, available in
//     every acquisition policy so experiments E1 and E14 can count the
//     interconnect traffic each generates.
//   - Noop: the uniprocessor variant. Mach declares simple locks through a
//     macro precisely so they can be compiled out of uniprocessor kernels;
//     Noop is that compile-out, usable anywhere a Mutex is.
//
// The paper's lock structure is there "to allow the simple addition of
// debugging and statistics information" (Appendix A.1). The statistics
// are a trace class: a Lock built with Opts{Class: ...} (or SetClass)
// counts every acquisition, contended acquisition and release exactly,
// times every contended wait and a 1-in-N sample of holds, all through
// one acquisition funnel shared by both algorithms, and the class's
// Snapshot reads them. The debugging is the Checked wrapper: holder
// tracking, double-acquire/release detection, and integration with
// sched's you-may-not-block-holding-a-spin-lock rule.
//
// Simple locks may not be held across blocking operations or context
// switches; the paper calls violations of this restriction fatal. The
// enforcement lives in sched.ThreadBlock and fires for Checked locks.
package splock

import (
	"runtime"
	"sync/atomic"

	"machlock/internal/hw"
	"machlock/internal/machsim/simhook"
	"machlock/internal/trace"
)

// Mutex is the machine-independent simple lock interface (Appendix A):
// Lock spins until acquired, Unlock releases, TryLock makes a single
// attempt. The zero value of every implementation is an unlocked lock,
// mirroring simple_lock_init.
type Mutex interface {
	Lock()
	Unlock()
	TryLock() bool
}

// Lock is the production simple lock: a word-sized spin lock over native
// atomics. The zero value is unlocked. Spinners yield the processor
// between test iterations so the simulation remains live on few host cores;
// this stands in for the hardware backoff a real kernel spin performs.
//
// A lock may optionally be registered with the observability layer via
// SetClass; an unclassed lock (the zero value) pays only a nil check per
// operation, and a classed lock with tracing disabled pays one atomic
// load — the "structure to allow the simple addition of debugging and
// statistics information" of Appendix A.1, at its designed cost.
type Lock struct {
	state int32

	// class is the observability registration; nil means untraced.
	// Immutable after SetClass, which must precede concurrent use.
	class *trace.Class
	// acquiredAt is the trace-clock stamp (trace.Now) of the current
	// sampled acquisition, the same reading its acquire event carries; 0
	// for an unsampled or untraced hold. Protected by the lock itself
	// (written after acquire, consumed at release).
	acquiredAt int64
	// hold is the sampled holder identity waiters blame their spin time
	// on; published with the stamp, cleared at release. See
	// trace.HoldInfo.
	hold atomic.Pointer[trace.HoldInfo]

	// algo is the MCS queue state of a Queue lock; nil — the zero value
	// and what NewWith leaves for TASTTAS — keeps the refined-policy
	// fast path above untouched. Immutable after InitWith, which must
	// precede concurrent use.
	algo *algoState
	// name is an optional human label carried from Opts.Name.
	name string
}

var _ Mutex = (*Lock)(nil)

// SetClass registers the lock with the observability layer. Call before
// the lock is in concurrent use (typically right after construction).
func (l *Lock) SetClass(c *trace.Class) { l.class = c }

// Name returns the label given at construction; empty for anonymous locks.
func (l *Lock) Name() string { return l.name }

// Algorithm returns the lock's acquisition policy.
func (l *Lock) Algorithm() Policy {
	if l.algo == nil {
		return TASTTAS
	}
	return Queue
}

// Lock acquires the lock, spinning until it is available (simple_lock).
// The first attempt is an unconditional test-and-set; only if that fails
// does the acquirer fall back to test-and-test-and-set spinning.
func (l *Lock) Lock() {
	simhook.Yield(simhook.SpLock, l)
	if l.algo != nil {
		l.algo.lock(l)
		return
	}
	if atomic.CompareAndSwapInt32(&l.state, 0, 1) {
		if l.class.On() && l.class.Acquire() {
			l.beginHold(0, 0)
		}
		simhook.Note(simhook.SpAcquired, l, 0)
		return
	}
	l.spin()
}

// spin is the contended TAS+TTAS acquisition: test until the lock looks
// free, then test-and-set.
func (l *Lock) spin() {
	start, blamed := l.tracedStart()
	for atomic.LoadInt32(&l.state) != 0 || !atomic.CompareAndSwapInt32(&l.state, 0, 1) {
		spinYield(l)
	}
	l.acquired(start, blamed)
}

// The acquisition funnel below is shared by both algorithms; start == 0
// means the acquisition is untraced or did not wait.

// tracedStart captures the wait-timing state the trace layer needs before
// a contended wait: the trace-clock start (also the wait event's stamp)
// and the holder pinned for blame, and it enters the class's spinners
// gauge. start is 0 when tracing is off. Blame is pinned to the holder
// visible when the spin began; by the time we win the lock the blame
// target has (by definition) released.
func (l *Lock) tracedStart() (start int64, blamed *trace.HoldInfo) {
	if !l.class.On() {
		return 0, nil
	}
	blamed = l.hold.Load()
	start = trace.Now()
	l.class.WaitingAt(start, 0)
	l.class.SpinStart()
	return start, blamed
}

// acquired finishes an acquisition that went through the slow path (a
// contended TAS+TTAS spin, or any queue acquisition): it records it with
// the trace layer and notes it to machsim. start and blamed are
// tracedStart's, or 0 and nil for an acquisition that did not wait.
func (l *Lock) acquired(start int64, blamed *trace.HoldInfo) {
	if start != 0 {
		l.waitedFor(start, blamed)
	} else if l.class.On() && l.class.Acquire() {
		l.beginHold(0, 0)
	}
	simhook.Note(simhook.SpAcquired, l, 0)
}

// waitedFor records a traced acquisition that waited from start: it
// leaves the spinners gauge and, unless tracing was turned off meanwhile,
// the wait is timed, recorded and blamed on the holder pinned when it
// began, and the acquisition is counted and, if sampled, stamped with the
// wait's end reading.
func (l *Lock) waitedFor(start int64, blamed *trace.HoldInfo) {
	l.class.SpinEnd()
	if !l.class.On() {
		return
	}
	now := trace.Now()
	waitNs := now - start
	l.class.DoneWaitingAt(now, 0, waitNs)
	l.class.BlameWait(blamed, waitNs)
	l.class.Waited(3, waitNs)
	if l.class.Acquire() {
		l.beginHold(now, waitNs)
	}
}

// beginHold stamps a sampled acquisition and publishes it for holder
// blame; called by the new holder right after the test-and-set, so the
// store is ordered before any waiter's blame load could matter. now is
// the grant's clock reading if the caller took one (0: read here): the
// hold stamp, the acquire event and HoldInfo.Since all carry it. Spin
// locks have no thread identity, so the recorded tid is 0.
func (l *Lock) beginHold(now, waitNs int64) {
	if now == 0 {
		now = trace.Now()
	}
	l.acquiredAt = now
	l.class.AcquireEvent(now, 0, waitNs)
	l.hold.Store(l.class.BeginHold(1, now, 0))
}

// endHold retires the stamp of a sampled hold: it returns the stamp, the
// release reading and the published holder identity, or a zero stamp for
// an unsampled hold. Called by the holder before the lock changes hands.
func (l *Lock) endHold() (at, now int64, h *trace.HoldInfo) {
	at = l.acquiredAt
	if at == 0 {
		return 0, 0, nil
	}
	l.acquiredAt = 0
	return at, trace.Now(), l.hold.Swap(nil)
}

// recordRelease records a release: a sampled hold (at != 0, from
// endHold) feeds the hold histogram, the ring and the hold-site profile;
// an unsampled one is only counted. Callers skip it for an unstamped hold
// of a class that is off; a stamped hold is retired even if tracing was
// turned off mid-hold.
func (l *Lock) recordRelease(at, now int64, h *trace.HoldInfo) {
	if at == 0 {
		l.class.Release()
		return
	}
	holdNs := now - at
	l.class.ReleasedAt(now, 0, holdNs)
	l.class.EndHold(h, holdNs)
}

// Unlock releases the lock (simple_unlock). Unlocking an unlocked lock
// panics: it always indicates a protocol error.
func (l *Lock) Unlock() {
	// The yield happens while the lock is still held: machsim explores
	// schedules where a holder is preempted inside its critical section,
	// which is exactly when waiters pile up on the interlock.
	simhook.Yield(simhook.SpUnlock, l)
	if l.algo != nil {
		l.algo.unlock(l)
		return
	}
	var at, now int64
	var h *trace.HoldInfo
	if l.acquiredAt != 0 { // tested here so an unstamped hold makes no call
		at, now, h = l.endHold()
	}
	if atomic.SwapInt32(&l.state, 0) != 1 {
		panic("splock: unlock of unlocked simple lock")
	}
	if at != 0 || l.class.On() {
		l.recordRelease(at, now, h)
	}
	simhook.Note(simhook.SpReleased, l, 0)
}

// TryLock makes a single attempt to acquire the lock (simple_lock_try),
// returning true on success. The paper notes it is "useful for attempting
// to acquire a lock in situations where the unconditional acquisition of
// the lock could cause deadlock" — the backout protocols of Section 5.
func (l *Lock) TryLock() bool {
	simhook.Yield(simhook.SpTry, l)
	if simhook.ForceFail(simhook.SpTry, l) {
		return false
	}
	if l.algo != nil {
		return l.algo.tryLock(l)
	}
	if !atomic.CompareAndSwapInt32(&l.state, 0, 1) {
		return false
	}
	simhook.Note(simhook.SpAcquired, l, 0)
	if l.class.On() && l.class.Acquire() {
		l.beginHold(0, 0)
	}
	return true
}

// Locked reports whether the lock is currently held. Useful only for
// assertions; the answer may be stale by the time it is returned.
func (l *Lock) Locked() bool {
	return atomic.LoadInt32(&l.state) != 0
}

// Noop is the uniprocessor simple lock: all operations are no-ops, the
// moral equivalent of Mach defining simple locks out of uniprocessor
// kernels via decl_simple_lock_data. Use it (through the Mutex interface)
// to measure the cost the declaration-macro design avoids (experiment E12).
type Noop struct{}

var _ Mutex = Noop{}

// Lock is a no-op.
func (Noop) Lock() {}

// Unlock is a no-op.
func (Noop) Unlock() {}

// TryLock always succeeds.
func (Noop) TryLock() bool { return true }

// Policy selects a spin-lock acquisition algorithm. SimLock (NewSimWith)
// runs every policy; the production Lock (NewWith/InitWith) runs only
// TASTTAS and Queue, the two the kernel builds. The zero value is TASTTAS,
// the paper's refined policy and the default every zero-value Lock runs.
type Policy int

const (
	// TASTTAS makes one test-and-set attempt first and falls back to
	// TTAS spinning only on failure: best of both when most locks are
	// acquired on the first attempt, as the paper assumes of a well
	// designed system. This is the default policy (the zero value).
	TASTTAS Policy = iota
	// TAS spins directly on the atomic test-and-set instruction. Every
	// spin iteration is a read-modify-write that steals exclusive
	// ownership of the lock's cache line, so contended spinning floods
	// the interconnect. SimLock-only (E1, E14).
	TAS
	// TTAS (test-and-test-and-set) spins on an ordinary load — a cache
	// hit once the line is filled Shared — and attempts the atomic
	// operation only when the lock is observed free. SimLock-only (E1,
	// E14).
	TTAS
	// TCLEAR is the test-and-clear encoding the paper attributes to
	// Precision Architecture ("swap 0 and 1 for a test and clear lock"):
	// the unlocked state is 1, acquisition swaps in 0 and succeeds on
	// reading back nonzero, release stores 1. Coherence behaviour is
	// identical to TAS — "the basic concept is that of an atomic
	// operation that sets the lock to a known state and returns its old
	// value." SimLock-only: SimLock models the inverted encoding
	// faithfully.
	TCLEAR
	// Queue is an MCS-style queue lock: waiters append a per-waiter
	// qnode to a tail pointer with one atomic swap and then spin on a
	// flag in their own qnode. Handoff is explicit and FIFO; under
	// contention each waiter's spinning stays in its own cache line, so
	// the interconnect sees one transfer per handoff instead of a
	// stampede per release (Mellor-Crummey & Scott).
	Queue
	// Cohort is a topology-aware composite: one global lock plus one
	// local queue per processor cell (NUMA domain). A releasing holder
	// prefers a waiter from its own cell — passing the global lock along
	// with the local one, up to a handoff budget that bounds unfairness —
	// so the lock word and the data it protects migrate between cells
	// rarely (lock cohorting, Dice/Marathe/Shavit; Fissile locks).
	// SimLock-only (E14): goroutines have no processor cell, so the
	// locality it trades fairness for exists only on the simulated
	// machine.
	Cohort
	// Adaptive is a queue lock whose waiters spin only for a bounded
	// budget before parking (blocking) until handoff: spin-then-park,
	// the waiting strategy tuned for lightweight-thread environments
	// where an unbounded spinner steals the processor the holder needs.
	// SimLock-only (E14); sleeping complex locks get spin-then-park
	// waiting from cxlock's SpinPark option instead.
	Adaptive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case TAS:
		return "tas"
	case TTAS:
		return "ttas"
	case TASTTAS:
		return "tas+ttas"
	case TCLEAR:
		return "test-and-clear"
	case Queue:
		return "queue"
	case Cohort:
		return "cohort"
	case Adaptive:
		return "adaptive"
	default:
		return "policy(?)"
	}
}

// SimStats is a snapshot of a SimLock's accounting.
type SimStats struct {
	Acquisitions int64 // successful Lock/TryLock acquisitions
	FirstTry     int64 // acquisitions that succeeded on the first attempt
	SpinLoops    int64 // spin iterations executed while waiting
	Handoffs     int64 // direct holder-to-waiter handoffs (queue/cohort/adaptive)
	Parks        int64 // waiters that stopped spinning and parked (adaptive)
}

// SimLock is a simple lock over a simulated hw.Cell, parameterized by
// acquisition policy. All operations name the simulated CPU performing
// them; spin loops checkpoint that CPU so pending interrupts are taken
// while spinning with interrupts enabled — exactly the behaviour the
// Section 7 deadlock analysis depends on.
type SimLock struct {
	cell   *hw.Cell
	policy Policy
	ext    *simExt // arsenal state; nil for the classic spin policies

	acquisitions atomic.Int64
	firstTry     atomic.Int64
	spinLoops    atomic.Int64
}

// SimOpts configures a simulated simple lock (NewSimWith).
type SimOpts struct {
	// Algorithm selects the acquisition policy; every Policy is valid.
	Algorithm Policy
	// Machine is the simulated machine whose cells hold the lock's state;
	// required.
	Machine *hw.Machine
	// SpinBudget is the number of spin iterations an Adaptive waiter
	// performs before parking; 0 means DefaultSpinBudget.
	SpinBudget int
	// HandoffBudget bounds consecutive same-cell handoffs for Cohort
	// before the global word is released to other cells; 0 means
	// DefaultHandoffBudget.
	HandoffBudget int
}

// NewSimWith creates an unlocked simulated simple lock from options;
// o.Machine is required. The lock-word cell's unlocked encoding is
// policy-specific: 0 for the set-style locks, 1 for test-and-clear.
func NewSimWith(o SimOpts) *SimLock {
	m := o.Machine
	if m == nil {
		panic("splock: NewSimWith requires SimOpts.Machine")
	}
	initial := int64(0)
	if o.Algorithm == TCLEAR {
		initial = 1
	}
	l := &SimLock{cell: m.NewCell(initial), policy: o.Algorithm}
	switch o.Algorithm {
	case Queue, Cohort, Adaptive:
		l.ext = newSimExt(m, o)
	}
	return l
}

// Policy returns the lock's acquisition policy.
func (l *SimLock) Policy() Policy { return l.policy }

// Lock acquires the lock from the given CPU, spinning per the policy.
func (l *SimLock) Lock(c *hw.CPU) {
	if l.ext != nil {
		l.lockExt(c)
		return
	}
	switch l.policy {
	case TAS:
		if l.cell.Swap(c, 1) == 0 {
			l.acquired(true)
			return
		}
		for {
			l.spin(c)
			if l.cell.Swap(c, 1) == 0 {
				l.acquired(false)
				return
			}
		}
	case TTAS:
		first := true
		for {
			for l.cell.Load(c) != 0 {
				first = false
				l.spin(c)
			}
			if l.cell.Swap(c, 1) == 0 {
				l.acquired(first)
				return
			}
			first = false
		}
	case TCLEAR:
		if l.cell.Swap(c, 0) != 0 {
			l.acquired(true)
			return
		}
		for {
			l.spin(c)
			if l.cell.Swap(c, 0) != 0 {
				l.acquired(false)
				return
			}
		}
	default: // TASTTAS
		if l.cell.Swap(c, 1) == 0 {
			l.acquired(true)
			return
		}
		for {
			for l.cell.Load(c) != 0 {
				l.spin(c)
			}
			if l.cell.Swap(c, 1) == 0 {
				l.acquired(false)
				return
			}
		}
	}
}

// Unlock releases the lock from the given CPU.
func (l *SimLock) Unlock(c *hw.CPU) {
	if l.ext != nil {
		l.unlockExt(c)
		return
	}
	if l.policy == TCLEAR {
		if l.cell.Swap(c, 1) != 0 {
			panic("splock: unlock of unlocked simulated lock")
		}
		return
	}
	if l.cell.Swap(c, 0) != 1 {
		panic("splock: unlock of unlocked simulated lock")
	}
}

// TryLock makes a single atomic attempt from the given CPU.
func (l *SimLock) TryLock(c *hw.CPU) bool {
	if l.ext != nil {
		return l.trylockExt(c)
	}
	if l.policy == TCLEAR {
		if l.cell.Swap(c, 0) != 0 {
			l.acquired(true)
			return true
		}
		return false
	}
	if l.cell.Swap(c, 1) == 0 {
		l.acquired(true)
		return true
	}
	return false
}

// SpinOnce performs exactly one spin iteration of the lock's policy from
// the given CPU, returning true if the lock was acquired. It exists so
// experiments can drive spin phases deterministically (fixed iteration
// counts) instead of depending on host scheduling: one TAS iteration is an
// atomic attempt; one TTAS iteration is a cached test, escalating to the
// atomic attempt only when the lock was observed free.
func (l *SimLock) SpinOnce(c *hw.CPU) bool {
	if l.ext != nil {
		if l.extStep(c) {
			return true
		}
		l.spinLoops.Add(1)
		return false
	}
	switch l.policy {
	case TAS:
		if l.cell.Swap(c, 1) == 0 {
			l.acquired(false)
			return true
		}
		l.spinLoops.Add(1)
		return false
	case TCLEAR:
		if l.cell.Swap(c, 0) != 0 {
			l.acquired(false)
			return true
		}
		l.spinLoops.Add(1)
		return false
	default: // TTAS, TASTTAS: in the spin phase both test before setting
		if l.cell.Load(c) != 0 {
			l.spinLoops.Add(1)
			return false
		}
		if l.cell.Swap(c, 1) == 0 {
			l.acquired(false)
			return true
		}
		l.spinLoops.Add(1)
		return false
	}
}

// spin accounts one spin iteration and lets the CPU take interrupts, then
// yields so other simulated CPUs can run on few host cores.
func (l *SimLock) spin(c *hw.CPU) {
	l.spinLoops.Add(1)
	c.Checkpoint()
	runtime.Gosched()
}

func (l *SimLock) acquired(first bool) {
	l.acquisitions.Add(1)
	if first {
		l.firstTry.Add(1)
	}
}

// Stats returns a snapshot of the lock's accounting.
func (l *SimLock) Stats() SimStats {
	s := SimStats{
		Acquisitions: l.acquisitions.Load(),
		FirstTry:     l.firstTry.Load(),
		SpinLoops:    l.spinLoops.Load(),
	}
	if l.ext != nil {
		s.Handoffs = l.ext.handoffs.Load()
		s.Parks = l.ext.parks.Load()
	}
	return s
}

// CellStats returns the underlying cell's coherence accounting.
func (l *SimLock) CellStats() hw.CellStats { return l.cell.Stats() }
