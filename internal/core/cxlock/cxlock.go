// Package cxlock implements Mach's complex locks: the machine-independent
// multiple-readers/single-writer locks of Section 4 and Appendix B of the
// paper, with the Sleep and Recursive protocols as options.
//
// The implementation follows the paper's (and Mach kern/lock.c's) design
// exactly:
//
//   - The internal state of every complex lock is protected by a simple
//     lock (the interlock); this is the only machine dependency.
//   - Writers have priority: readers are not admitted while a write or
//     upgrade request is outstanding, guaranteeing writers are not starved.
//   - An upgrade (ReadToWrite) fails — releasing the caller's read hold —
//     if another upgrade is already pending, because two upgrades would
//     deadlock against each other's read holds. Upgrades are favored over
//     plain writes.
//   - A downgrade (WriteToRead) can never fail and is the recommended
//     alternative to upgrading (Section 7.1).
//   - With the Sleep option a requestor blocks on the lock's event using
//     the assert_wait/thread_block protocol; without it requestors spin.
//     Only sleepable locks may be held across blocking operations.
//   - The Recursive option lets a designated holder re-acquire the lock;
//     the holder's read requests are not blocked by pending writes or
//     upgrades, so it can drain its recursion and release (Section 4). The
//     paper's verdict that recursive locking is a design trap is
//     reproduced as experiment E11.
//
// Lock holders are identified by *sched.Thread where a protocol needs an
// identity (sleeping, recursion); spin-mode acquisitions may pass nil.
package cxlock

import (
	"runtime"
	"sync/atomic"
	"time"

	"machlock/internal/core/splock"
	"machlock/internal/machsim/simhook"
	"machlock/internal/sched"
	"machlock/internal/trace"
)

// Stats is a snapshot of a lock's accounting.
type Stats struct {
	ReadAcquisitions  int64 // all read holds granted, biased fast path included
	WriteAcquisitions int64
	Sleeps            int64 // times a requestor blocked
	Spins             int64 // spin iterations while waiting
	Upgrades          int64 // successful read-to-write upgrades
	FailedUpgrades    int64 // upgrades that failed and released the read lock
	Downgrades        int64
	BiasedReads       int64 // subset of ReadAcquisitions that took the bias fast path
	BiasRevocations   int64 // times a write request revoked the reader bias
}

// Lock is a complex lock (lock_data_t). Create with New or initialize an
// embedded value with Init; an uninitialized zero value is a valid
// non-sleepable lock, matching Mach's lock_init(l, FALSE).
type Lock struct {
	interlock splock.Lock

	wantWrite   bool
	wantUpgrade bool
	waiting     bool
	canSleep    bool
	readCount   int32

	// spinPark is the spin-then-park budget (Options.SpinPark): waiters
	// with a thread identity spin this many rounds before blocking.
	// Zero means classic waiting (sleepable locks block immediately).
	// Immutable after InitWith.
	spinPark int32

	// Recursive option state: the designated holder and its depth of
	// write recursion. holder is set by SetRecursive while write-held.
	holder *sched.Thread
	depth  int32

	// norecurse forbids SetRecursive; set (inverted, so the zero value
	// keeps the permissive legacy behaviour) by InitWith when the
	// Recursive option was not requested.
	norecurse bool

	// name labels the lock in reports; set by InitWith.
	name string

	// bias is the ReaderBias option state (see bias.go); nil — the
	// default and the zero value — means every reader uses the paper's
	// interlocked protocol.
	bias *biasTable

	// Mach25UpgradeBug reproduces the documented Mach 2.5 defect in
	// lock_try_read_to_write: it "will block even if the Sleep option is
	// disabled for the lock". Off by default (the correct behaviour).
	Mach25UpgradeBug bool

	// BusyWait makes non-sleeping waiters burn CPU between attempts
	// instead of yielding to the Go scheduler, modelling what a real
	// kernel spin does to a processor. Off by default — yielding keeps
	// simulations live on small hosts — and enabled by experiment E5 to
	// measure the cost the Sleep option avoids.
	BusyWait bool

	stats lockStats

	// class is the optional observability registration (Options.Class);
	// nil means untraced. Immutable after InitWith.
	class *trace.Class
	// acquiredAt stamps the current hold occupancy (first reader in, or
	// writer in) with the trace clock (trace.Now), the same reading the
	// grant's acquire event carries; protected by the interlock, nonzero
	// only for an occupancy whose first grant was sampled.
	acquiredAt int64
	// hold is the sampled identity of the current occupancy's first
	// holder, published for waiters to blame (trace.Class.BlameWait) and
	// cleared when the occupancy ends. Nil between holds and for
	// unsampled holds, in which case waiters' delay accumulates as
	// unattributed.
	hold atomic.Pointer[trace.HoldInfo]
}

// tidOf returns t's trace id (0 for the nil thread).
func tidOf(t *sched.Thread) uint32 {
	if t == nil {
		return 0
	}
	return t.TraceID()
}

// grantStamp counts a grant of an instrumented lock, under the interlock
// at the grant. It reads the clock only when the grant needs it: when
// the sampler picked it, or when it ends a timed wait. A sampled grant
// that starts an occupancy (first is writer in, or first reader in)
// stamps it, so an occupancy is stamped if and only if its first grant
// was sampled.
func (l *Lock) grantStamp(waited, first bool) (now int64, sampled bool) {
	sampled = l.class.Acquire()
	if sampled || waited {
		now = trace.Now()
	}
	if sampled && first {
		l.acquiredAt = now
	}
	return now, sampled
}

// recordAcquired finishes one grant's trace record outside the interlock,
// like the observer hooks: a grant that waited since waitStart feeds the
// wait profile (always), a sampled one records its ring event. now is
// grantStamp's reading.
func (l *Lock) recordAcquired(t *sched.Thread, now int64, sampled, waited bool, waitStart int64) {
	var waitNs int64
	if waited {
		waitNs = now - waitStart
		l.class.Waited(1, waitNs)
	}
	if sampled {
		l.class.AcquireEvent(now, tidOf(t), waitNs)
	}
}

// recordRecursive records a recursive grant by the designated holder:
// counted, and recorded in the ring if sampled. It starts no occupancy,
// so it stamps nothing.
func (l *Lock) recordRecursive(t *sched.Thread) {
	if l.class.Acquire() {
		l.class.AcquireEvent(0, tidOf(t), 0)
	}
}

// recordReleased feeds one release. holdNs >= 0 means the release ended a
// stamped occupancy: it is timed (the reading now), recorded in the ring,
// and its duration lands in the hold histogram and, under the holder
// identity h the occupancy published, in the hold-site profile. Any other
// release is only counted.
func (l *Lock) recordReleased(t *sched.Thread, now, holdNs int64, h *trace.HoldInfo) {
	if holdNs < 0 {
		l.class.Release()
		return
	}
	l.class.ReleasedAt(now, tidOf(t), holdNs)
	l.class.EndHold(h, holdNs)
}

// publishHold publishes the holder identity of a sampled occupancy for
// waiters to blame: it captures the acquiring stack into l.hold. Call
// only for the sampled grant that started the occupancy (later readers
// share the first-in holder's blame). now is the occupancy's hold stamp.
func (l *Lock) publishHold(t *sched.Thread, now int64) {
	l.hold.Store(l.class.BeginHold(1, now, tidOf(t)))
}

// takeHold retires the published holder identity at end of occupancy;
// called under the interlock. Callers guard with holdPublished so the
// common case (nothing published: tracing off, or an unsampled
// acquisition) is one plain atomic load — no RMW on the release fast
// path. The load-then-swap split is not racy: holds are published only by
// the current holder, and takeHold runs when that occupancy ends, so no
// concurrent store can interleave.
func (l *Lock) takeHold() *trace.HoldInfo { return l.hold.Swap(nil) }

// holdPublished reports whether the current occupancy published a holder
// identity; inlines to one atomic load.
func (l *Lock) holdPublished() bool { return l.hold.Load() != nil }

// nowNs is the protocol clock: the machsim virtual clock when a harness is
// installed (so time-dependent protocol state — the bias re-arm cooldown —
// is deterministic under schedule exploration), else the host clock. It is
// for the bias cooldown only; every trace stamp (hold stamps, events,
// HoldInfo.Since) is a trace.Now reading, so the flight recorder stays on
// one timebase under a harness too.
func nowNs() int64 {
	if n, ok := simhook.NowNs(); ok {
		return n
	}
	return time.Now().UnixNano()
}

type lockStats struct {
	reads          atomic.Int64
	writes         atomic.Int64
	sleeps         atomic.Int64
	spins          atomic.Int64
	upgrades       atomic.Int64
	failedUpgrades atomic.Int64
	downgrades     atomic.Int64
}

// CanSleep reports whether the Sleep option is enabled.
func (l *Lock) CanSleep() bool {
	l.interlock.Lock()
	defer l.interlock.Unlock()
	return l.canSleep
}

// wait releases the interlock and waits for the lock's state to change,
// then re-acquires the interlock. With the Sleep option and a thread
// identity it blocks via the event-wait protocol; otherwise it spins.
// round is the caller's waiting-round counter for this acquisition: a
// spin-then-park lock (Options.SpinPark) spends its first spinPark
// rounds spinning and blocks from then on, so short occupancies are
// ridden out without a context switch. The caller must hold the
// interlock and must have set l.waiting when sleeping (done here).
func (l *Lock) wait(t *sched.Thread, round int) {
	tr := l.class.On()
	var start int64
	var blamed *trace.HoldInfo
	var tid uint32
	if tr {
		start = trace.Now()
		tid = tidOf(t)
		// Blame is pinned to the holder visible when the wait begins: by
		// the time the wait ends the lock may have changed hands, but the
		// delay was caused by whoever held it when we had to stop.
		blamed = l.hold.Load()
	}
	park := l.canSleep && t != nil
	if park && round < int(l.spinPark) {
		// Spin-then-park: still inside the spin window.
		park = false
	}
	if park {
		l.waiting = true
		l.stats.sleeps.Add(1)
		sched.AssertWait(t, sched.Event(l))
		l.interlock.Unlock()
		obWaiting(l, t)
		trace.SpanWaitStart(t) // park implies t != nil
		l.class.WaitingAt(start, tid)
		sched.ThreadBlock(t)
	} else {
		l.stats.spins.Add(1)
		l.interlock.Unlock()
		obWaiting(l, t)
		// The wait is credited to t's open operation span, if any (one
		// atomic load when none is). The nil check must happen here: a
		// nil *sched.Thread boxed into the span engine's `any` owner no
		// longer compares equal to nil.
		if t != nil {
			trace.SpanWaitStart(t)
		}
		l.class.WaitingAt(start, tid)
		if simhook.Enabled() {
			// One spin iteration is a voluntary machsim yield: the
			// interlock has been released, so the harness is free to run
			// the holder this waiter is spinning on.
			simhook.Yield(simhook.CxSpin, l)
		} else if l.BusyWait {
			busyPause()
		} else {
			runtime.Gosched()
		}
	}
	obDoneWaiting(l, t)
	if t != nil {
		trace.SpanWaitEnd(t)
	}
	if tr {
		now := trace.Now()
		waitNs := now - start
		l.class.DoneWaitingAt(now, tid, waitNs)
		l.class.BlameWait(blamed, waitNs)
	}
	l.interlock.Lock() //machlock:holds — handoff: wait() returns with the interlock reacquired for its caller
}

// pauseSink defeats dead-code elimination of the busy-wait loop without
// introducing a data race.
var pauseSink atomic.Uint64

// busyPause occupies the processor for a short, bounded burst — the
// simulated cost of one hardware spin window.
func busyPause() {
	var x uint64 = 88172645463325252
	for i := 0; i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	pauseSink.Store(x)
}

// busyYield is the polite spin step shared by the package's non-sleeping
// waiters: give other goroutines the processor between attempts.
func busyYield() { runtime.Gosched() }

// wakeupLocked wakes lock waiters if any are recorded; interlock held.
func (l *Lock) wakeupLocked() {
	if l.waiting {
		l.waiting = false
		sched.ThreadWakeup(sched.Event(l))
	}
}

// Write acquires the lock for writing (lock_write). If t is the lock's
// recursive holder, the recursion depth is incremented instead.
func (l *Lock) Write(t *sched.Thread) {
	simhook.Yield(simhook.CxWrite, l)
	instr := l.class.On()
	var waitStart, now int64
	waited, sampled := false, false
	l.interlock.Lock()
	if t != nil && l.holder == t {
		if !l.wantWrite && !l.wantUpgrade {
			// The holder downgraded to a recursive read lock; the
			// paper: "this downgrade prohibits recursive
			// acquisitions for write".
			l.interlock.Unlock()
			panic("cxlock: recursive write acquisition after downgrade")
		}
		// Recursive acquisition by the designated holder.
		l.depth++
		simhook.Note(simhook.CxRecurseGrant, l, int64(l.depth))
		l.interlock.Unlock()
		obAcquired(l, t)
		if instr {
			l.recordRecursive(t)
		}
		return
	}
	// Acquire the want_write bit; writers queue behind existing writers.
	// One spin-then-park round counter spans the whole acquisition: the
	// budget bounds total pre-block spinning, not per-condition spinning.
	round := 0
	for l.wantWrite {
		if instr && !waited {
			waitStart = trace.Now()
			waited = true
		}
		l.wait(t, round)
		round++
	}
	l.wantWrite = true
	simhook.Note(simhook.CxWriteWant, l, 0)
	// Revoke the reader bias (if armed) before draining: fast-path
	// readers must either be visible in the slot table or observe the
	// disarmed flag and queue behind us.
	l.revokeBiasLocked()
	// Wait for readers to drain — interlocked readers and published
	// slot readers alike — deferring to any pending upgrade: upgrades
	// are favored over writes because the upgrader already holds
	// standing in the lock.
	for l.readCount != 0 || l.wantUpgrade || l.biasReadersVisible() {
		if instr && !waited {
			waitStart = trace.Now()
			waited = true
		}
		l.wait(t, round)
		round++
	}
	l.noteBiasDrainedLocked()
	l.stats.writes.Add(1)
	simhook.Note(simhook.CxWriteGrant, l, 0)
	if instr {
		now, sampled = l.grantStamp(waited, true)
	}
	l.interlock.Unlock()
	if sampled {
		l.publishHold(t, now)
	}
	obAcquired(l, t)
	simhook.Yield(simhook.CxAcquired, l)
	if instr {
		l.recordAcquired(t, now, sampled, waited, waitStart)
	}
}

// Read acquires the lock for reading (lock_read). The recursive holder's
// read requests are not blocked by pending write or upgrade requests; all
// other readers queue behind them (writer priority).
func (l *Lock) Read(t *sched.Thread) {
	simhook.Yield(simhook.CxRead, l)
	if l.readFast(t) {
		obAcquired(l, t)
		simhook.Yield(simhook.CxAcquired, l)
		return
	}
	instr := l.class.On()
	var waitStart, now int64
	waited, sampled := false, false
	l.interlock.Lock()
	if t != nil && l.holder == t {
		l.readCount++
		l.stats.reads.Add(1)
		simhook.Note(simhook.CxReadGrantRec, l, int64(l.readCount))
		l.interlock.Unlock()
		obAcquired(l, t)
		if instr {
			l.recordRecursive(t)
		}
		return
	}
	round := 0
	for l.wantWrite || l.wantUpgrade {
		if instr && !waited {
			waitStart = trace.Now()
			waited = true
		}
		l.wait(t, round)
		round++
	}
	l.readCount++
	l.stats.reads.Add(1)
	simhook.Note(simhook.CxReadGrant, l, int64(l.readCount))
	l.maybeRearmLocked()
	// Occupancy: the hold sample spans from the first reader in to the
	// last reader out, so only a sampled 0→1 transition stamps it.
	first := l.readCount == 1
	if instr {
		now, sampled = l.grantStamp(waited, first)
	}
	l.interlock.Unlock()
	if sampled && first {
		l.publishHold(t, now)
	}
	obAcquired(l, t)
	simhook.Yield(simhook.CxAcquired, l)
	if instr {
		l.recordAcquired(t, now, sampled, waited, waitStart)
	}
}

// ReadToWrite upgrades a read hold to a write hold (lock_read_to_write).
// It returns true if the upgrade FAILED because another upgrade request was
// outstanding; in that case the caller's read hold has been released and it
// must restart its operation from scratch — the recovery burden the paper
// cites as the reason this feature is rarely used. On success (false) the
// caller holds the lock for writing.
func (l *Lock) ReadToWrite(t *sched.Thread) bool {
	simhook.Yield(simhook.CxUpgrade, l)
	instr := l.class.On()
	l.interlock.Lock()
	// A hold taken on the bias fast path lives in the slot table, not in
	// readCount; migrate it under the interlock so the upgrade protocol
	// below operates on the representation it understands. The write-side
	// drain counts holds in either representation, so the hold is never
	// invisible during the move.
	l.migrateBiasHoldLocked(t)
	if t != nil && l.holder == t {
		if !l.wantWrite && !l.wantUpgrade {
			// "…and upgrades of recursive read acquisitions" are
			// prohibited after a downgrade. Checked before touching
			// any state so the caller's holds survive the panic.
			l.interlock.Unlock()
			panic("cxlock: upgrade of recursive read acquisition after downgrade")
		}
		// The recursive holder already has write standing; fold the
		// read hold into recursion depth.
		l.readCount--
		l.depth++
		simhook.Note(simhook.CxReleaseRead, l, int64(l.readCount))
		simhook.Note(simhook.CxRecurseGrant, l, int64(l.depth))
		l.interlock.Unlock()
		l.class.Upgraded(true)
		return false
	}
	l.readCount--
	if l.wantUpgrade {
		// Someone else is upgrading: two upgrades deadlock, so this one
		// fails and its read hold is gone.
		l.stats.failedUpgrades.Add(1)
		simhook.Note(simhook.CxUpgradeFail, l, int64(l.readCount))
		holdNs := int64(-1)
		var now int64
		var h *trace.HoldInfo
		// As in Done, an ending occupancy always retires its stamp: an
		// unsampled grant never overwrites one, so a stamp left behind
		// would time the next occupancy from this one's start.
		if l.readCount == 0 && l.acquiredAt != 0 {
			now = trace.Now()
			holdNs = now - l.acquiredAt
			l.acquiredAt = 0
			if l.holdPublished() {
				h = l.takeHold()
			}
		}
		l.wakeupLocked()
		l.interlock.Unlock()
		obReleased(l, t)
		l.class.Upgraded(false)
		if instr {
			l.recordReleased(t, now, holdNs, h)
		}
		return true
	}
	l.wantUpgrade = true
	simhook.Note(simhook.CxUpgradeWant, l, int64(l.readCount))
	l.revokeBiasLocked()
	for round := 0; l.readCount != 0 || l.biasReadersVisible(); round++ {
		l.wait(t, round)
	}
	l.noteBiasDrainedLocked()
	l.stats.upgrades.Add(1)
	simhook.Note(simhook.CxUpgradeGrant, l, 0)
	// The hold continues across the upgrade: if this thread was the only
	// reader its occupancy stamp (if the occupancy was sampled) carries
	// over. An upgrade is not an acquisition, so it never stamps: if
	// other readers ended the occupancy while we drained, the write hold
	// is unsampled.
	l.interlock.Unlock()
	l.class.Upgraded(true)
	simhook.Yield(simhook.CxAcquired, l)
	return false
}

// WriteToRead downgrades a write hold to a read hold (lock_write_to_read).
// It cannot fail and requires no recovery logic in the caller; the paper
// recommends write-then-downgrade over read-then-upgrade for exactly this
// reason.
func (l *Lock) WriteToRead(t *sched.Thread) {
	simhook.Yield(simhook.CxDowngrade, l)
	l.interlock.Lock()
	l.readCount++
	if t != nil && l.holder == t && l.depth > 0 {
		// Recursion pop: the holder keeps write standing and gains a read
		// hold, so for the shadow model this is a recursive read grant.
		l.depth--
		simhook.Note(simhook.CxReleaseRecursive, l, int64(l.depth))
		simhook.Note(simhook.CxReadGrantRec, l, int64(l.readCount))
	} else if l.wantUpgrade {
		l.wantUpgrade = false
		simhook.Note(simhook.CxDowngradeDone, l, int64(l.readCount))
	} else {
		l.wantWrite = false
		simhook.Note(simhook.CxDowngradeDone, l, int64(l.readCount))
	}
	l.stats.downgrades.Add(1)
	// The hold continues in read mode; the occupancy stamp carries over.
	l.wakeupLocked()
	l.interlock.Unlock()
	l.class.Downgraded()
}

// Done releases a lock held in any mode (lock_done). "A lock can be held
// either by a single writer or by one or more readers, thus lock_done can
// always determine how the lock is held and release it appropriately."
func (l *Lock) Done(t *sched.Thread) {
	simhook.Yield(simhook.CxDone, l)
	if l.doneFast(t) {
		obReleased(l, t)
		return
	}
	instr := l.class.On()
	l.interlock.Lock()
	endHold := false
	switch {
	case l.readCount > 0:
		l.readCount--
		endHold = l.readCount == 0
		simhook.Note(simhook.CxReleaseRead, l, int64(l.readCount))
	case t != nil && l.holder == t && l.depth > 0:
		l.depth--
		simhook.Note(simhook.CxReleaseRecursive, l, int64(l.depth))
	case l.wantUpgrade:
		l.wantUpgrade = false
		endHold = true
		simhook.Note(simhook.CxReleaseUpgrade, l, 0)
	case l.wantWrite:
		l.wantWrite = false
		endHold = true
		simhook.Note(simhook.CxReleaseWrite, l, 0)
	default:
		l.interlock.Unlock()
		panic("cxlock: lock_done on lock not held")
	}
	holdNs := int64(-1)
	var now int64
	var h *trace.HoldInfo
	// A published hold implies a stamped (sampled) occupancy, so the
	// stamp check also guards the hold retire — the untraced and the
	// unsampled release paths pay nothing here.
	if endHold && l.acquiredAt != 0 {
		now = trace.Now()
		holdNs = now - l.acquiredAt
		l.acquiredAt = 0
		if l.holdPublished() {
			h = l.takeHold()
		}
	}
	l.wakeupLocked()
	l.interlock.Unlock()
	obReleased(l, t)
	if instr {
		l.recordReleased(t, now, holdNs, h)
	}
}

// TryRead makes a single attempt to acquire the lock for reading
// (lock_try_read); it never spins or blocks.
func (l *Lock) TryRead(t *sched.Thread) bool {
	simhook.Yield(simhook.CxTryRead, l)
	if simhook.ForceFail(simhook.CxTryRead, l) {
		return false
	}
	if l.readFast(t) {
		obAcquired(l, t)
		return true
	}
	instr := l.class.On()
	l.interlock.Lock()
	defer l.interlock.Unlock()
	if t != nil && l.holder == t {
		l.readCount++
		l.stats.reads.Add(1)
		simhook.Note(simhook.CxReadGrantRec, l, int64(l.readCount))
		defer obAcquired(l, t)
		if instr {
			defer l.recordRecursive(t)
		}
		return true
	}
	if l.wantWrite || l.wantUpgrade {
		return false
	}
	l.readCount++
	l.stats.reads.Add(1)
	simhook.Note(simhook.CxReadGrant, l, int64(l.readCount))
	l.maybeRearmLocked()
	if instr {
		first := l.readCount == 1
		now, sampled := l.grantStamp(false, first)
		if sampled && first {
			defer l.publishHold(t, now)
		}
		defer l.recordAcquired(t, now, sampled, false, 0)
	}
	defer obAcquired(l, t)
	return true
}

// TryWrite makes a single attempt to acquire the lock for writing
// (lock_try_write); it never spins or blocks. In particular it returns
// false if the lock is currently held for writing.
func (l *Lock) TryWrite(t *sched.Thread) bool {
	simhook.Yield(simhook.CxTryWrite, l)
	if simhook.ForceFail(simhook.CxTryWrite, l) {
		return false
	}
	instr := l.class.On()
	l.interlock.Lock()
	defer l.interlock.Unlock()
	if t != nil && l.holder == t {
		if !l.wantWrite && !l.wantUpgrade {
			return false // downgraded holder may not re-acquire for write
		}
		l.depth++
		simhook.Note(simhook.CxRecurseGrant, l, int64(l.depth))
		defer obAcquired(l, t)
		if instr {
			defer l.recordRecursive(t)
		}
		return true
	}
	if l.wantWrite || l.wantUpgrade || l.readCount != 0 {
		return false
	}
	// Reader bias: disarm BEFORE scanning the slot table. A fast-path
	// reader that completed its recheck before the disarm is visible in
	// the scan (we fail); one that rechecks after it self-evicts. Either
	// way no fast reader coexists with a granted try-write. The bias
	// stays revoked so a try-loop converges; slow-path readers re-arm it
	// after the cooldown.
	l.revokeBiasLocked()
	if l.biasReadersVisible() {
		return false
	}
	l.noteBiasDrainedLocked()
	l.wantWrite = true
	l.stats.writes.Add(1)
	simhook.Note(simhook.CxWriteGrant, l, 0)
	if instr {
		now, sampled := l.grantStamp(false, true)
		if sampled {
			defer l.publishHold(t, now)
		}
		defer l.recordAcquired(t, now, sampled, false, 0)
	}
	defer obAcquired(l, t)
	return true
}

// TryReadToWrite attempts to upgrade a read hold to a write hold
// (lock_try_read_to_write). Unlike ReadToWrite it does NOT drop the read
// lock if the upgrade would deadlock: if another upgrade is pending it
// returns false with the read hold intact. If the upgrade can proceed it
// may wait for other readers to drain — by spinning if the Sleep option is
// off, or by blocking if it is on. (With Mach25UpgradeBug set, it blocks
// regardless of the Sleep option, reproducing the documented Mach 2.5
// defect; the paper notes the bug likely survived because no Mach kernel
// used this routine.)
func (l *Lock) TryReadToWrite(t *sched.Thread) bool {
	simhook.Yield(simhook.CxTryUpgrade, l)
	if simhook.ForceFail(simhook.CxTryUpgrade, l) {
		return false // read hold intact, per the TryReadToWrite contract
	}
	l.interlock.Lock()
	// As in ReadToWrite: move a fast-path hold into readCount first.
	l.migrateBiasHoldLocked(t)
	if t != nil && l.holder == t {
		if !l.wantWrite && !l.wantUpgrade {
			l.interlock.Unlock()
			return false // downgraded holder may not upgrade
		}
		l.readCount--
		l.depth++
		simhook.Note(simhook.CxReleaseRead, l, int64(l.readCount))
		simhook.Note(simhook.CxRecurseGrant, l, int64(l.depth))
		l.interlock.Unlock()
		return true
	}
	if l.wantUpgrade {
		l.interlock.Unlock()
		return false
	}
	l.readCount--
	l.wantUpgrade = true
	simhook.Note(simhook.CxUpgradeWant, l, int64(l.readCount))
	l.revokeBiasLocked()
	for round := 0; l.readCount != 0 || l.biasReadersVisible(); round++ {
		if l.Mach25UpgradeBug && t != nil {
			// Mach 2.5: blocks even when the lock is not sleepable.
			l.waiting = true
			l.stats.sleeps.Add(1)
			sched.AssertWait(t, sched.Event(l))
			l.interlock.Unlock()
			sched.ThreadBlock(t)
			l.interlock.Lock()
		} else {
			l.wait(t, round)
		}
	}
	l.noteBiasDrainedLocked()
	l.stats.upgrades.Add(1)
	simhook.Note(simhook.CxUpgradeGrant, l, 0)
	// As in ReadToWrite, the occupancy stamp carries over and is never
	// restarted.
	l.interlock.Unlock()
	l.class.Upgraded(true)
	simhook.Yield(simhook.CxAcquired, l)
	return true
}

// SetRecursive enables the Recursive option for the calling thread
// (lock_set_recursive). The lock must be held for writing by t. While
// recursive, t's re-acquisitions succeed immediately and its read requests
// bypass pending writers.
func (l *Lock) SetRecursive(t *sched.Thread) {
	if t == nil {
		panic("cxlock: SetRecursive requires a thread identity")
	}
	if l.norecurse {
		panic("cxlock: Recursive option not enabled for this lock (Options.Recursive)")
	}
	l.interlock.Lock()
	defer l.interlock.Unlock()
	if !l.wantWrite && !l.wantUpgrade {
		panic("cxlock: SetRecursive on lock not held for write")
	}
	if l.holder != nil && l.holder != t {
		panic("cxlock: SetRecursive while another thread is the recursive holder")
	}
	l.holder = t
}

// ClearRecursive clears the Recursive option (lock_clear_recursive). It
// must be called by the recursive holder, with no outstanding recursive
// acquisitions, before the final release.
func (l *Lock) ClearRecursive(t *sched.Thread) {
	l.interlock.Lock()
	defer l.interlock.Unlock()
	if l.holder != t {
		panic("cxlock: ClearRecursive by non-holder")
	}
	if l.depth != 0 {
		panic("cxlock: ClearRecursive with recursive acquisitions outstanding")
	}
	l.holder = nil
}

// RecursiveHolder returns the current recursive holder, or nil.
func (l *Lock) RecursiveHolder() *sched.Thread {
	l.interlock.Lock()
	defer l.interlock.Unlock()
	return l.holder
}

// HeldForWrite reports whether the lock is currently held for writing.
// Advisory; for assertions only.
func (l *Lock) HeldForWrite() bool {
	l.interlock.Lock()
	defer l.interlock.Unlock()
	return (l.wantWrite || l.wantUpgrade) && l.readCount == 0 && !l.biasReadersVisible()
}

// Readers returns the current read-hold count, published fast-path
// readers included. Advisory.
func (l *Lock) Readers() int {
	l.interlock.Lock()
	defer l.interlock.Unlock()
	n := int(l.readCount)
	if b := l.bias; b != nil {
		for i := range b.slots {
			if b.slots[i].owner.Load() != nil {
				n++
			}
		}
	}
	return n
}

// Stats returns a snapshot of the lock's accounting. Read acquisitions
// taken on the bias fast path are included in ReadAcquisitions (and
// broken out in BiasedReads), so enabling the bias never silently
// undercounts.
func (l *Lock) Stats() Stats {
	biased := l.biasReadCount()
	s := Stats{
		ReadAcquisitions:  l.stats.reads.Load() + biased,
		WriteAcquisitions: l.stats.writes.Load(),
		Sleeps:            l.stats.sleeps.Load(),
		Spins:             l.stats.spins.Load(),
		Upgrades:          l.stats.upgrades.Load(),
		FailedUpgrades:    l.stats.failedUpgrades.Load(),
		Downgrades:        l.stats.downgrades.Load(),
		BiasedReads:       biased,
	}
	if b := l.bias; b != nil {
		s.BiasRevocations = b.revocations.Load()
	}
	return s
}
