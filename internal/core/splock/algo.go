package splock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"machlock/internal/machsim/simhook"
	"machlock/internal/trace"
)

// This file holds the production lock's construction options and its one
// alternative acquisition algorithm. The paper's refined TAS/TTAS policy
// (Appendix A) is the default and keeps its inline fast path in
// splock.go; a Lock whose algo field is nil never reaches the queue code
// here.
//
// The alternative is Queue (MCS): under heavy contention every TTAS
// release triggers a stampede — each spinner's cached copy is invalidated
// and refetched, and the winners' test-and-sets serialize on the lock
// line. A queue lock turns that into one enqueue swap per arrival, purely
// local spinning, and one line transfer per FIFO handoff. The kernel
// builds it for the page pool and the IPC space interlock.
//
// The other spin policies (TAS, TTAS, TCLEAR, Cohort, Adaptive) are
// claims about interconnect traffic, and only the coherence simulator can
// check those: they live in SimLock (NewSimWith), where E1 and E14
// measure them. The production constructors refuse them.
//
// The queue path records through the same acquisition funnel as the
// default path's contended spin (tracedStart, acquired, endHold and
// recordRelease in splock.go), so a class counts and samples both
// algorithms alike, and it passes machsim's simhook yield points (plus
// two queue-specific notes, SpEnqueued and SpHandoff, that let the
// harness check FIFO handoff).

// Opts configures production simple-lock construction, mirroring
// cxlock.Options. The zero value is a default lock: TASTTAS policy,
// untraced, anonymous.
type Opts struct {
	// Algorithm selects the acquisition policy: TASTTAS (the zero
	// value, the paper's refined default) or Queue. Any other policy
	// panics; those run only on SimLock.
	Algorithm Policy
	// Class registers the lock with the observability layer (equivalent
	// to SetClass).
	Class *trace.Class
	// Name is an optional human label, surfaced by Name().
	Name string
}

// NewWith creates a production simple lock from options. A zero Opts is
// exactly the zero-value Lock. This is the construction path the machlock
// facade uses.
func NewWith(o Opts) *Lock {
	l := new(Lock)
	l.InitWith(o)
	return l
}

// InitWith initializes an embedded Lock from options, for locks living
// inside larger structures (zones, vm objects). Must precede concurrent
// use; reinitializing a held lock is a protocol violation.
func (l *Lock) InitWith(o Opts) {
	l.class = o.Class
	l.name = o.Name
	switch o.Algorithm {
	case TASTTAS:
		l.algo = nil
	case Queue:
		l.algo = new(algoState)
	case TAS, TTAS, TCLEAR, Cohort, Adaptive:
		panic(fmt.Sprintf("splock: %v is a SimLock-only policy; build it with NewSimWith", o.Algorithm))
	default:
		panic(fmt.Sprintf("splock: unknown algorithm %d", int(o.Algorithm)))
	}
}

// qnode is one waiter's queue entry. Waiters spin on their own node's
// grant flag, so contended waiting stays out of the lock word's cache
// line. Nodes are pooled; getQnode resets them.
type qnode struct {
	next    atomic.Pointer[qnode]
	granted atomic.Bool // set by the predecessor's handoff
}

var qnodePool = sync.Pool{New: func() any { return new(qnode) }}

func getQnode() *qnode {
	n := qnodePool.Get().(*qnode)
	n.next.Store(nil)
	n.granted.Store(false)
	return n
}

// algoState is the queue lock's state, allocated only for Queue locks so
// the default Lock stays one word of hot state. The tail pointer is the
// MCS queue; the holder's own node is remembered in cur for its release.
type algoState struct {
	tail atomic.Pointer[qnode]
	cur  *qnode // protected by the lock itself (holder-only access)
}

// spinYield is one failed spin iteration: under machsim a voluntary
// yield, on the host a Gosched so the holder can run.
func spinYield(l *Lock) {
	if simhook.Enabled() {
		simhook.Yield(simhook.SpSpin, l)
	} else {
		runtime.Gosched()
	}
}

// grant makes n the holder's node and finishes the acquisition: it
// mirrors the held state into l.state (for Locked and the unlock sanity
// check) and runs the shared funnel. start and blamed are tracedStart's
// (0 and nil if the acquirer did not wait).
func (a *algoState) grant(l *Lock, n *qnode, start int64, blamed *trace.HoldInfo) {
	a.cur = n
	atomic.StoreInt32(&l.state, 1)
	l.acquired(start, blamed)
}

// lock is the MCS acquisition: swap self onto the tail, then spin on the
// own node's grant flag.
func (a *algoState) lock(l *Lock) {
	n := getQnode()
	prev := a.tail.Swap(n)
	simhook.Note(simhook.SpEnqueued, l, 0)
	if prev == nil {
		// Queue was empty: we are the holder with no predecessor.
		a.grant(l, n, 0, nil)
		return
	}
	start, blamed := l.tracedStart()
	prev.next.Store(n)
	for !n.granted.Load() {
		spinYield(l)
	}
	a.grant(l, n, start, blamed)
}

// unlock is the MCS release: with no visible successor, swing the tail
// back to nil and the lock is free; otherwise hand off directly to the
// next node (FIFO).
func (a *algoState) unlock(l *Lock) {
	n := a.cur
	if n == nil || atomic.LoadInt32(&l.state) != 1 {
		panic("splock: unlock of unlocked simple lock")
	}
	// The holder's trace bookkeeping runs before the lock changes hands,
	// by handoff or by becoming free. The l.state mirror is cleared only
	// on a true release, not on a handoff: a handed-off lock is never
	// observably unlocked.
	if l.acquiredAt != 0 || l.class.On() {
		l.recordRelease(l.endHold())
	}
	a.cur = nil
	if n.next.Load() == nil {
		// Clear the mirror before the tail CAS: on success the lock is
		// free from the CAS instant and the next fresh acquirer sets the
		// mirror itself — storing after would race with it.
		atomic.StoreInt32(&l.state, 0)
		if a.tail.CompareAndSwap(n, nil) {
			simhook.Note(simhook.SpReleased, l, 0)
			qnodePool.Put(n)
			return
		}
		// A new waiter swapped the tail but has not linked yet; the lock
		// is spoken for — restore the mirror and wait for the link.
		atomic.StoreInt32(&l.state, 1)
		for n.next.Load() == nil {
			spinYield(l)
		}
	}
	simhook.Note(simhook.SpHandoff, l, 0)
	n.next.Load().granted.Store(true)
	qnodePool.Put(n)
}

// tryLock succeeds only when the queue is empty: one CAS of the tail from
// nil to our node.
func (a *algoState) tryLock(l *Lock) bool {
	n := getQnode()
	if !a.tail.CompareAndSwap(nil, n) {
		qnodePool.Put(n)
		return false
	}
	simhook.Note(simhook.SpEnqueued, l, 0)
	a.grant(l, n, 0, nil)
	return true
}
