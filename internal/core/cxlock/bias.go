package cxlock

import (
	"sync/atomic"
	"time"
	"unsafe"

	"machlock/internal/machsim/simhook"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// This file implements the ReaderBias option: a BRAVO-style visible-readers
// slot table (Dice & Kogan, "BRAVO: Biased Locking for Reader-Writer
// Locks") bolted onto the paper's complex lock.
//
// The paper's protocol funnels every reader through the central interlock,
// so read acquisitions of a hot lock serialize on one cache line — the
// coarse-grained bottleneck the Mach design accepts. With the ReaderBias
// option a reader instead PUBLISHES itself with a single uncontended
// compare-and-swap into a per-lock slot table and never touches the
// interlock:
//
//	reader:  if bias armed: CAS(slot, nil, self); recheck bias armed;
//	         armed  -> read hold granted (fast path)
//	         revoked-> self-evict (clear slot) and take the slow path
//	release: if slot == self: clear slot (fast path)
//
// Writers REVOKE the bias: under the interlock they disarm the bias flag,
// then extend the paper's reader-drain loop to also wait for every slot to
// empty. The publish-then-recheck on the reader side and the disarm-then-
// scan on the writer side guarantee that a writer never runs concurrently
// with a fast-path reader: any reader the writer's scan misses observed
// the disarmed flag and self-evicted without ever holding the lock.
//
// After a revocation the bias stays disarmed for an adaptive cooldown
// (a multiple of the revocation's drain time, as in BRAVO), so a write-
// heavy phase pays the slot scan only once; slow-path readers re-arm the
// bias once the cooldown expires and no write request is outstanding.
//
// The fast path requires a thread identity (slots are owned and cleared
// exclusively by the publishing thread; nil-identity readers always take
// the slow path) and is disabled while per-instance or class timing
// instrumentation is active, because hold-occupancy sampling is accounted
// under the interlock. Everything else — writer priority, Sleep and
// Recursive, upgrade/downgrade, and the try variants — keeps the paper's
// semantics: those paths all go through the interlock, where the slot
// table is just one more reader population for writers to drain.

// Options configures a complex lock at initialization, replacing the
// scattered New(canSleep)/SetSleepable/SetClass mutators (the paper's
// lock_init never allowed post-construction mutation either).
type Options struct {
	// Sleep enables the Sleep option: waiters block via the event-wait
	// protocol instead of spinning (lock_init's can_sleep).
	Sleep bool
	// Recursive permits SetRecursive on this lock. Locks built through
	// Options default to non-recursive — the paper's verdict is that
	// recursive locking is a design trap (Section 7.1, experiment E11).
	Recursive bool
	// ReaderBias enables the BRAVO-style visible-readers fast path.
	ReaderBias bool
	// Name labels the lock for reports; Stats-only unless Class is set.
	Name string
	// Class registers the lock with the observability layer.
	Class *trace.Class
	// SpinPark selects the spin-then-park waiting strategy: a waiter
	// with a thread identity spins for this many rounds (interlock
	// released between attempts) before committing to a block, covering
	// short occupancies without a context switch while still yielding
	// the processor for long ones. A positive value implies the Sleep
	// option (parking is sleeping). Zero keeps the classic behaviour:
	// sleepable locks block on the first round, others spin forever.
	SpinPark int
}

// NewWith creates a complex lock from Options.
func NewWith(o Options) *Lock {
	l := &Lock{}
	l.InitWith(o)
	return l
}

// InitWith initializes an embedded lock value from Options. It must not be
// called on a lock in use.
func (l *Lock) InitWith(o Options) {
	l.canSleep = o.Sleep || o.SpinPark > 0
	l.spinPark = int32(o.SpinPark)
	l.norecurse = !o.Recursive
	l.name = o.Name
	l.class = o.Class
	if o.ReaderBias {
		l.bias = newBiasTable()
	}
}

// Name returns the label given at initialization ("" for legacy locks).
func (l *Lock) Name() string { return l.name }

// biasSlots is the visible-readers table size; a power of two so the slot
// index is a mask. 64 slots is comfortably above the reader parallelism a
// host offers, keeping hash collisions (which merely cost the slow path)
// rare.
const biasSlots = 64

// Bias cooldown policy: after a revocation the bias stays disarmed for
// biasCooldownMult times the drain time the writer paid, with a floor, so
// a steady writer stream settles into the unbiased protocol instead of
// paying a revocation scan per write (BRAVO's N-times-latency rule).
const (
	biasCooldownMult  = 9
	biasMinCooldownNs = int64(10 * time.Microsecond)
)

// biasSlot is one visible-reader entry, padded so concurrent readers in
// neighbouring slots never share a cache line — the whole point of the
// table over a central counter.
type biasSlot struct {
	owner atomic.Pointer[sched.Thread]
	// reads counts fast-path acquisitions through this slot, so Stats()
	// sees biased readers; same line as owner, which only its publishing
	// thread touches on the fast path.
	reads atomic.Int64
	_     [48]byte
}

// biasTable is the per-lock reader-bias state, allocated only for locks
// initialized with the ReaderBias option.
type biasTable struct {
	// armed gates the fast path. Disarmed by writers under the interlock,
	// re-armed by slow-path readers after the cooldown.
	armed atomic.Bool
	// revokedAt is the revocation timestamp (ns) of the in-progress
	// revocation; 0 when none. Consumed by the drain winner to size the
	// cooldown.
	revokedAt atomic.Int64
	// rebiasAt is the earliest time (ns) a slow-path reader may re-arm.
	rebiasAt atomic.Int64
	// revocations counts revocation events (for Stats).
	revocations atomic.Int64
	slots       [biasSlots]biasSlot
}

func newBiasTable() *biasTable {
	b := &biasTable{}
	b.armed.Store(true)
	return b
}

// slotIndex hashes a thread identity to its slot: Fibonacci mix of the
// handle's address, stable for the Read/Done pairing and well distributed
// across threads.
func slotIndex(t *sched.Thread) int {
	// Under machsim the handle's address would make slot assignment (and
	// so collision-induced slow paths) vary run to run; the harness's
	// stable thread index keeps schedules byte-replayable.
	if i, ok := simhook.Index(t); ok {
		return i & (biasSlots - 1)
	}
	h := uintptr(unsafe.Pointer(t))
	h = (h >> 4) * 0x9E3779B97F4A7C15
	return int((h >> 40) & (biasSlots - 1))
}

// readFast attempts the biased read fast path; on true the caller holds
// the lock for reading without having touched the interlock.
func (l *Lock) readFast(t *sched.Thread) bool {
	b := l.bias
	if b == nil || t == nil || !b.armed.Load() || l.class.On() {
		return false
	}
	s := &b.slots[slotIndex(t)]
	// An occupied slot is a hash collision — or this thread's own nested
	// read, which must go to readCount so each hold stays releasable.
	if s.owner.Load() != nil || !s.owner.CompareAndSwap(nil, t) {
		return false
	}
	// The publish-to-recheck window is THE critical interleaving of the
	// BRAVO protocol: a writer revoking here must either see our slot in
	// its scan or be seen by our recheck. Let machsim preempt us in it.
	simhook.Yield(simhook.CxBiasPublish, l)
	if !b.armed.Load() {
		// A writer revoked between our publish and this recheck. It may
		// already have scanned past our slot, so we never held the lock:
		// self-evict and queue behind the writer on the slow path.
		s.owner.Store(nil)
		l.biasWake()
		return false
	}
	s.reads.Add(1)
	simhook.Note(simhook.CxBiasReadGrant, l, 0)
	return true
}

// doneFast releases a fast-path read hold, if the caller has one; only the
// publishing thread ever clears its slot, so owner==t is proof of a biased
// hold.
func (l *Lock) doneFast(t *sched.Thread) bool {
	b := l.bias
	if b == nil || t == nil {
		return false
	}
	s := &b.slots[slotIndex(t)]
	if s.owner.Load() != t {
		return false
	}
	s.owner.Store(nil)
	simhook.Note(simhook.CxBiasRelease, l, 0)
	if !b.armed.Load() {
		// Revocation in progress: the draining writer may be asleep on
		// the lock event waiting for this very slot.
		l.biasWake()
	}
	return true
}

// biasWake nudges waiters through the interlock; called by fast-path
// readers only when they observe a revocation in progress.
func (l *Lock) biasWake() {
	l.interlock.Lock()
	l.wakeupLocked()
	l.interlock.Unlock()
}

// revokeBiasLocked disarms the bias ahead of a write-side drain; interlock
// held. Idempotent: only the disarming caller records the revocation.
func (l *Lock) revokeBiasLocked() {
	b := l.bias
	if b == nil || !b.armed.Load() {
		return
	}
	b.armed.Store(false)
	b.revokedAt.Store(nowNs())
	b.revocations.Add(1)
	simhook.Note(simhook.CxBiasRevoke, l, 0)
	l.class.BiasRevoked()
}

// biasReadersVisible reports whether any slot holds a published reader;
// part of the write-side drain condition alongside readCount. Interlock
// held (the scan itself is plain atomic loads).
func (l *Lock) biasReadersVisible() bool {
	b := l.bias
	if b == nil {
		return false
	}
	for i := range b.slots {
		if b.slots[i].owner.Load() != nil {
			return true
		}
	}
	return false
}

// noteBiasDrainedLocked ends a revocation: the write-side drain saw the
// table empty. Sizes the re-arm cooldown from the drain time actually
// paid. Interlock held.
func (l *Lock) noteBiasDrainedLocked() {
	b := l.bias
	if b == nil {
		return
	}
	if start := b.revokedAt.Swap(0); start != 0 {
		now := nowNs()
		cooldown := (now - start) * biasCooldownMult
		if cooldown < biasMinCooldownNs {
			cooldown = biasMinCooldownNs
		}
		b.rebiasAt.Store(now + cooldown)
		simhook.Note(simhook.CxBiasDrained, l, 0)
	}
}

// maybeRearmLocked re-arms the bias from the read slow path once the
// cooldown has expired and no write or upgrade request is outstanding.
// Interlock held.
func (l *Lock) maybeRearmLocked() {
	b := l.bias
	if b == nil || b.armed.Load() || l.wantWrite || l.wantUpgrade {
		return
	}
	if nowNs() >= b.rebiasAt.Load() {
		b.armed.Store(true)
		simhook.Note(simhook.CxBiasRearm, l, 0)
	}
}

// migrateBiasHoldLocked converts the caller's fast-path read hold (if any)
// into a conventional readCount hold, so upgrade paths can run the
// paper's protocol on it. Interlock held. The writer-side drain counts a
// hold in either representation, so the hold never becomes invisible.
func (l *Lock) migrateBiasHoldLocked(t *sched.Thread) {
	b := l.bias
	if b == nil || t == nil {
		return
	}
	s := &b.slots[slotIndex(t)]
	if s.owner.Load() == t {
		s.owner.Store(nil)
		l.readCount++
	}
}

// biasReadCount sums fast-path read acquisitions across the slot table.
func (l *Lock) biasReadCount() int64 {
	b := l.bias
	if b == nil {
		return 0
	}
	var n int64
	for i := range b.slots {
		n += b.slots[i].reads.Load()
	}
	return n
}

// ReaderBiased reports whether the ReaderBias option is configured on this
// lock (regardless of whether the bias is currently armed or revoked).
func (l *Lock) ReaderBiased() bool { return l.bias != nil }

// biasArmed reports whether the fast path is currently armed; advisory,
// for tests.
func (l *Lock) biasArmed() bool {
	b := l.bias
	return b != nil && b.armed.Load()
}
