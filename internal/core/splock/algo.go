package splock

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"machlock/internal/hw"
	"machlock/internal/machsim/simhook"
	"machlock/internal/trace"
)

// This file is the simple-lock algorithm arsenal: the selectable
// acquisition policies behind Opts/NewWith/InitWith. The paper's refined
// TAS/TTAS policy (Appendix A) remains the default and keeps its original
// code path in splock.go — a Lock whose algo field is nil never reaches
// this file. The alternatives exist because the refined policy's ceiling
// is well understood on modern machines:
//
//   - Queue (MCS): under heavy contention every TTAS release triggers a
//     stampede — each spinner's cached copy is invalidated and refetched,
//     and the winners' test-and-sets serialize on the lock line. A queue
//     lock turns that into one enqueue swap per arrival, purely local
//     spinning, and one line transfer per FIFO handoff.
//   - Cohort: on a multi-cell (NUMA) machine the lock word and the data it
//     protects follow the holder; handing the lock across cells moves both
//     over the interconnect. A cohort lock keeps consecutive holders in
//     one cell up to a handoff budget.
//   - Adaptive: in a lightweight-thread environment an unbounded spinner
//     occupies the processor the holder may need to finish its critical
//     section; spin-then-park bounds that to a budget and then blocks.
//
// All algorithms plumb through the same seams as the default path: trace
// class profiles and HoldInfo blame publication, the splock observer
// fan-out, and machsim's simhook yield points (plus two queue-specific
// notes, SpEnqueued and SpHandoff, that let the harness check FIFO
// handoff).

// Opts configures simple-lock construction, mirroring cxlock.Options.
// The zero value is a default lock: TASTTAS policy, untraced, anonymous.
type Opts struct {
	// Algorithm selects the acquisition policy. The zero value is
	// TASTTAS, the paper's refined default.
	Algorithm Policy
	// Class registers the lock with the observability layer (equivalent
	// to SetClass).
	Class *trace.Class
	// Name is an optional human label, surfaced by Name().
	Name string
	// SpinBudget is the number of spin iterations an Adaptive waiter
	// performs before parking; 0 means DefaultSpinBudget. Ignored by
	// other algorithms.
	SpinBudget int
	// Domains is the number of cohort domains (processor cells) for
	// Cohort; 0 means DefaultDomains. Ignored by other algorithms.
	Domains int
	// HandoffBudget bounds consecutive same-domain handoffs for Cohort
	// before the global lock is released to other cells; 0 means
	// DefaultHandoffBudget. Ignored by other algorithms.
	HandoffBudget int
	// Machine selects the simulated machine for NewSimWith; ignored by
	// NewWith/InitWith (production locks run on host atomics).
	Machine *hw.Machine
}

// Tuning defaults for the arsenal; chosen for the simulation's scale, not
// tuned for any particular host.
const (
	// DefaultSpinBudget is how long an Adaptive waiter spins before
	// parking. Roughly: long enough to cover a short critical section
	// without a context switch, short enough that a preempted holder
	// does not burn a processor.
	DefaultSpinBudget = 128
	// DefaultDomains is the cohort domain count when Opts.Domains is 0
	// and no machine topology is given.
	DefaultDomains = 2
	// DefaultHandoffBudget bounds consecutive intra-domain cohort
	// handoffs, the fairness/locality trade dial.
	DefaultHandoffBudget = 16
)

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
	case TAS, TTAS, TCLEAR, Queue, Cohort, Adaptive:
		l.algo = newAlgoState(o)
	default:
		panic(fmt.Sprintf("splock: unknown algorithm %v", o.Algorithm))
	}
}

// AlgoStats is a snapshot of a non-default algorithm's accounting; all
// zeros for the default path (which has no arsenal state to count).
type AlgoStats struct {
	Handoffs int64 // direct holder-to-successor handoffs (queue, cohort, adaptive)
	Local    int64 // cohort handoffs that stayed in the holder's domain
	Parks    int64 // adaptive waiters that exhausted their spin budget and parked
	Unparks  int64 // parked waiters woken by a releaser
}

// AlgoStats returns the lock's arsenal accounting.
func (l *Lock) AlgoStats() AlgoStats {
	a := l.algo
	if a == nil {
		return AlgoStats{}
	}
	return AlgoStats{
		Handoffs: a.handoffs.Load(),
		Local:    a.localHandoffs.Load(),
		Parks:    a.parks.Load(),
		Unparks:  a.unparks.Load(),
	}
}

// qnode is one waiter's queue entry. Waiters spin (or park) on their own
// node's grant flag, so contended waiting stays out of the lock word's
// cache line. Nodes are pooled; reset clears any state a previous
// acquisition could have left behind (including a stale park token).
type qnode struct {
	next  atomic.Pointer[qnode]
	wait  atomic.Int32 // qWaiting until granted; grant value says what was passed
	state atomic.Int32 // adaptive park handshake: qSpinning/qParked/qGranted
	ch    chan struct{}
}

// wait-flag values. A grant either hands the holder's rights over
// directly (queue, adaptive, and intra-domain cohort handoffs) or only
// promotes the waiter to local head, still needing the global lock
// (cohort cross-domain release).
const (
	qGrantedDirect int32 = iota // lock ownership passed with the grant
	qWaiting                    // spinning/parked on this node
	qGrantedLocal               // cohort: local head now, must take the global lock
)

// park-handshake values.
const (
	qSpinning int32 = iota // waiter has not parked
	qParked                // waiter parked (or committed to parking) on ch
	qGranted               // releaser granted before the waiter parked
)

var qnodePool = sync.Pool{New: func() any {
	return &qnode{ch: make(chan struct{}, 1)}
}}

func getQnode() *qnode {
	n := qnodePool.Get().(*qnode)
	n.next.Store(nil)
	n.wait.Store(qWaiting)
	n.state.Store(qSpinning)
	select { // drain a park token a sim-degraded waiter never consumed
	case <-n.ch:
	default:
	}
	return n
}

// algoState is the per-lock arsenal state, allocated only for non-default
// algorithms so the default Lock stays one word of hot state.
type algoState struct {
	kind Policy

	// tail is the queue-lock tail pointer (Queue and Adaptive); the
	// holder's own node is remembered in cur for its release.
	tail atomic.Pointer[qnode]
	cur  *qnode // protected by the lock itself (holder-only access)

	spinBudget int32 // adaptive spin-before-park budget

	// Cohort state: a global TTAS word plus one queue per domain. Waiters
	// are assigned a domain round-robin — goroutines have no processor
	// identity, so arrival order stands in for topology; under machsim the
	// token scheduler makes the assignment deterministic, and the SimLock
	// variant uses real simulated-CPU cells instead.
	global        int32
	domains       []cohortDomain
	rr            atomic.Uint32
	handoffBudget int32
	handoffs32    int32 // consecutive local handoffs; holder-only access
	curDomain     int32 // holder's domain; -1 when acquired via TryLock

	handoffs      atomic.Int64
	localHandoffs atomic.Int64
	parks         atomic.Int64
	unparks       atomic.Int64
}

// cohortDomain is one cell's local queue, padded so two domains' tails do
// not share a cache line (false sharing between cells would defeat the
// design being modeled).
type cohortDomain struct {
	tail atomic.Pointer[qnode]
	cur  *qnode // local head's node; protected by local-queue headship
	_    [40]byte
}

func newAlgoState(o Opts) *algoState {
	a := &algoState{kind: o.Algorithm}
	switch o.Algorithm {
	case Adaptive:
		a.spinBudget = int32(o.SpinBudget)
		if a.spinBudget <= 0 {
			a.spinBudget = DefaultSpinBudget
		}
	case Cohort:
		nd := o.Domains
		if nd <= 0 {
			if o.Machine != nil {
				nd = o.Machine.NCells()
			} else {
				nd = DefaultDomains
			}
		}
		a.domains = make([]cohortDomain, nd)
		a.handoffBudget = int32(o.HandoffBudget)
		if a.handoffBudget <= 0 {
			a.handoffBudget = DefaultHandoffBudget
		}
		a.curDomain = -1
	}
	return a
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

// tracedStart captures the wait-timing state the trace layer needs before
// a contended wait: the trace-clock start (also the wait event's stamp)
// and the holder pinned for blame. start is 0 when tracing is off.
func (l *Lock) tracedStart() (start int64, blamed *trace.HoldInfo) {
	if !l.class.On() {
		return 0, nil
	}
	blamed = l.hold.Load()
	start = trace.Now()
	l.class.WaitingAt(start, 0)
	return start, blamed
}

// acquired finishes an acquisition on every algorithm path: it mirrors
// the held state into l.state (for Locked and the unlock sanity check),
// stamps/publishes trace state, and fans out to observers. contended
// reports whether the acquirer waited; start is tracedStart's stamp (0 if
// it did not run). One clock reading stamps the hold and its events.
func (l *Lock) acquired(contended bool, start int64, blamed *trace.HoldInfo) {
	atomic.StoreInt32(&l.state, 1)
	if l.class.On() {
		now := trace.Now()
		l.acquiredAt = now
		l.publishHold(now)
		if start != 0 {
			waitNs := now - start
			l.class.DoneWaitingAt(now, 0, waitNs)
			l.class.BlameWait(blamed, waitNs)
			l.class.AcquiredAt(now, 0, true, waitNs)
			l.class.WaitSampled(1, waitNs)
		} else {
			l.class.AcquiredAt(now, 0, false, 0)
		}
	}
	simhook.Note(simhook.SpAcquired, l, 0)
	if contended {
		obDoneWaiting(l)
	}
	obAcquired(l, contended)
}

// releasing runs the holder's trace bookkeeping before the lock changes
// hands (by handoff or by becoming free): retire the hold stamp, record
// the hold time. The l.state mirror is cleared only on a true release,
// not on a handoff — a handed-off lock is never observably unlocked.
func (l *Lock) releasing() {
	if atomic.LoadInt32(&l.state) != 1 {
		panic("splock: unlock of unlocked simple lock")
	}
	if l.class != nil {
		holdNs := int64(-1)
		var now int64
		var h *trace.HoldInfo
		if at := l.acquiredAt; at != 0 {
			l.acquiredAt = 0
			now = trace.Now()
			holdNs = now - at
			if l.hold.Load() != nil {
				h = l.hold.Swap(nil)
			}
		}
		l.class.ReleasedAt(now, 0, holdNs)
		if holdNs >= 0 {
			l.class.EndHold(h, holdNs)
		}
	}
	obReleased(l)
}

// ---- dispatch ----

func (a *algoState) lock(l *Lock) {
	switch a.kind {
	case TAS, TCLEAR:
		a.lockTAS(l)
	case TTAS:
		a.lockTTAS(l)
	case Queue, Adaptive:
		a.lockQueue(l)
	case Cohort:
		a.lockCohort(l)
	}
}

func (a *algoState) unlock(l *Lock) {
	switch a.kind {
	case TAS, TCLEAR, TTAS:
		l.releasing()
		if atomic.SwapInt32(&l.state, 0) != 1 {
			panic("splock: unlock of unlocked simple lock")
		}
		simhook.Note(simhook.SpReleased, l, 0)
	case Queue, Adaptive:
		a.unlockQueue(l)
	case Cohort:
		a.unlockCohort(l)
	}
}

func (a *algoState) trylock(l *Lock) bool {
	switch a.kind {
	case TAS, TCLEAR, TTAS:
		if !atomic.CompareAndSwapInt32(&l.state, 0, 1) {
			return false
		}
		l.acquired(false, 0, nil)
		return true
	case Queue, Adaptive:
		return a.trylockQueue(l)
	case Cohort:
		return a.trylockCohort(l)
	}
	return false
}

// ---- plain spin policies over the production lock word ----

// lockTAS spins directly on the atomic swap — every iteration an RMW.
// (TCLEAR shares this path: Go atomics offer no distinct encoding worth
// modeling; the coherence-faithful inverted encoding lives in SimLock.)
func (a *algoState) lockTAS(l *Lock) {
	if atomic.CompareAndSwapInt32(&l.state, 0, 1) {
		l.acquired(false, 0, nil)
		return
	}
	start, blamed := l.tracedStart()
	obWaiting(l)
	for {
		if atomic.CompareAndSwapInt32(&l.state, 0, 1) {
			l.acquired(true, start, blamed)
			return
		}
		spinYield(l)
	}
}

// lockTTAS tests before every set attempt, including the first — the
// pure policy, without the paper's one-optimistic-TAS refinement.
func (a *algoState) lockTTAS(l *Lock) {
	if atomic.LoadInt32(&l.state) == 0 &&
		atomic.CompareAndSwapInt32(&l.state, 0, 1) {
		l.acquired(false, 0, nil)
		return
	}
	start, blamed := l.tracedStart()
	obWaiting(l)
	for {
		if atomic.LoadInt32(&l.state) == 0 &&
			atomic.CompareAndSwapInt32(&l.state, 0, 1) {
			l.acquired(true, start, blamed)
			return
		}
		spinYield(l)
	}
}

// Note: for TAS/TTAS/TCLEAR the lock word doubles as the mirror, so
// acquired()'s StoreInt32(1) is redundant but correct (we already own it).

// ---- queue (MCS) and adaptive spin-then-park ----

// lockQueue is the MCS acquisition: swap self onto the tail, then spin
// (Queue) or spin-then-park (Adaptive) on the own node's grant flag.
func (a *algoState) lockQueue(l *Lock) {
	n := getQnode()
	prev := a.tail.Swap(n)
	simhook.Note(simhook.SpEnqueued, l, 0)
	if prev == nil {
		// Queue was empty: we are the holder with no predecessor.
		a.cur = n
		l.acquired(false, 0, nil)
		return
	}
	start, blamed := l.tracedStart()
	obWaiting(l)
	prev.next.Store(n)
	a.waitOnNode(l, n)
	a.cur = n
	l.acquired(true, start, blamed)
}

// waitOnNode spins on n's grant flag; Adaptive waiters park after their
// spin budget. Returns once the predecessor has granted.
func (a *algoState) waitOnNode(l *Lock, n *qnode) {
	budget := a.spinBudget // 0 for Queue: spin forever
	for i := int32(0); n.wait.Load() == qWaiting; i++ {
		if a.kind == Adaptive && i >= budget {
			a.park(l, n)
			return
		}
		spinYield(l)
	}
}

// park blocks the waiter until the releaser's grant. The handshake is a
// CAS on n.state: if the waiter wins (qSpinning→qParked) the releaser
// will send the wakeup token; if the releaser already granted
// (state=qGranted) the waiter never blocks. Under machsim, parking
// degrades to a dedicated yield loop — blocking on a host channel would
// freeze the token scheduler — at the SpPark point, so the harness still
// explores park-window schedules.
func (a *algoState) park(l *Lock, n *qnode) {
	if !n.state.CompareAndSwap(qSpinning, qParked) {
		// Granted between the budget check and the park commit.
		for n.wait.Load() == qWaiting {
			spinYield(l)
		}
		return
	}
	a.parks.Add(1)
	if simhook.Enabled() {
		for n.wait.Load() == qWaiting {
			simhook.Yield(simhook.SpPark, l)
		}
		return
	}
	<-n.ch
	for n.wait.Load() == qWaiting {
		// The token is sent after the grant store, so this spin should
		// not be needed; it guards the protocol, not the fast path.
		runtime.Gosched()
	}
}

// grant hands the lock (value v) to waiter n, waking it if it parked.
func (a *algoState) grant(n *qnode, v int32) {
	n.wait.Store(v)
	if a.kind == Adaptive && !n.state.CompareAndSwap(qSpinning, qGranted) {
		// The waiter committed to parking; under machsim it yield-loops
		// (no receiver — the stale token is drained on node reuse).
		a.unparks.Add(1)
		if !simhook.Enabled() {
			n.ch <- struct{}{}
		}
	}
}

// unlockQueue is the MCS release: with no visible successor, swing the
// tail back to nil and the lock is free; otherwise hand off directly to
// the next node (FIFO).
func (a *algoState) unlockQueue(l *Lock) {
	n := a.cur
	if n == nil {
		panic("splock: unlock of unlocked simple lock")
	}
	l.releasing()
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
	next := n.next.Load()
	a.handoffs.Add(1)
	simhook.Note(simhook.SpHandoff, l, 0)
	a.grant(next, qGrantedDirect)
	qnodePool.Put(n)
}

// trylockQueue succeeds only when the queue is empty: one CAS of the
// tail from nil to our node.
func (a *algoState) trylockQueue(l *Lock) bool {
	n := getQnode()
	if !a.tail.CompareAndSwap(nil, n) {
		qnodePool.Put(n)
		return false
	}
	simhook.Note(simhook.SpEnqueued, l, 0)
	a.cur = n
	l.acquired(false, 0, nil)
	return true
}

// ---- cohort ----

// lockCohort acquires the local (domain) queue, then the global lock —
// unless a same-domain predecessor handed the global over with the local
// headship.
func (a *algoState) lockCohort(l *Lock) {
	di := int(a.rr.Add(1)-1) % len(a.domains)
	d := &a.domains[di]
	n := getQnode()
	prev := d.tail.Swap(n)
	var start int64
	var blamed *trace.HoldInfo
	contended := prev != nil
	if contended {
		start, blamed = l.tracedStart()
		obWaiting(l)
		prev.next.Store(n)
		a.waitOnNode(l, n)
	}
	d.cur = n
	if !contended || n.wait.Load() == qGrantedLocal {
		// Local head without the global lock: TTAS on the global word,
		// contending only with other domains' heads (and TryLock).
		for {
			if atomic.LoadInt32(&a.global) == 0 &&
				atomic.CompareAndSwapInt32(&a.global, 0, 1) {
				break
			}
			if !contended {
				start, blamed = l.tracedStart()
				obWaiting(l)
				contended = true
			}
			spinYield(l)
		}
	}
	a.curDomain = int32(di)
	l.acquired(contended, start, blamed)
}

// unlockCohort prefers a same-domain successor while the handoff budget
// lasts (global lock passed along with local headship); otherwise it
// releases the global lock and promotes the successor to local head only.
func (a *algoState) unlockCohort(l *Lock) {
	l.releasing()
	di := a.curDomain
	a.curDomain = -1
	if di < 0 {
		// Acquired via TryLock: no local queue membership.
		atomic.StoreInt32(&l.state, 0)
		atomic.StoreInt32(&a.global, 0)
		simhook.Note(simhook.SpReleased, l, 0)
		return
	}
	d := &a.domains[di]
	n := d.cur
	d.cur = nil
	next := n.next.Load()
	if next == nil && !d.tail.CompareAndSwap(n, nil) {
		for next == nil {
			spinYield(l)
			next = n.next.Load()
		}
	}
	if next != nil && a.handoffs32 < a.handoffBudget {
		// Pass global + local to the same-domain successor.
		a.handoffs32++
		a.handoffs.Add(1)
		a.localHandoffs.Add(1)
		simhook.Note(simhook.SpHandoff, l, 0)
		a.grant(next, qGrantedDirect)
		qnodePool.Put(n)
		return
	}
	// Budget exhausted or domain empty: free the global lock, then (if a
	// successor exists) promote it to local head without the global.
	a.handoffs32 = 0
	atomic.StoreInt32(&l.state, 0)
	atomic.StoreInt32(&a.global, 0)
	simhook.Note(simhook.SpReleased, l, 0)
	if next != nil {
		a.handoffs.Add(1)
		a.grant(next, qGrantedLocal)
	}
	qnodePool.Put(n)
}

// trylockCohort makes a single attempt on the global word; a holder that
// entered this way has no local queue membership, so its release frees
// the global directly.
func (a *algoState) trylockCohort(l *Lock) bool {
	if !atomic.CompareAndSwapInt32(&a.global, 0, 1) {
		return false
	}
	a.curDomain = -1
	l.acquired(false, 0, nil)
	return true
}
