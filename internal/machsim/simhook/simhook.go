// Package simhook is the instrumentation seam between the lock/refcount
// substrate (splock, cxlock, refcount, object, sched) and the machsim
// deterministic schedule-exploration harness (internal/machsim).
//
// The substrate calls three kinds of hooks at protocol boundaries:
//
//   - Yield(point, obj): a SCHEDULING point. When a harness is installed,
//     the calling virtual thread may be suspended here and another one
//     resumed — this is where interleavings are explored. When no harness
//     is installed, Yield is a single atomic load and a nil check, the
//     same disabled-cost contract as the trace observers.
//   - Note(point, obj, n): a pure OBSERVATION, emitted inside a lock's own
//     critical section at the exact instruction where a protocol state
//     transition commits (read granted, want-write set, refcount moved).
//     Notes never suspend the caller, so they are safe under an interlock;
//     the harness uses them to maintain shadow models for its property
//     checkers.
//   - ForceFail(point, obj): a FAULT-INJECTION query. Try-style operations
//     ask the harness whether to fail artificially before attempting the
//     real protocol; the fault engine uses this to force try/upgrade
//     failures on schedules where they cannot happen organically.
//
// Blocking integrates through Block/Unblock: sched.Table.ThreadBlock
// parks a thread via Block (the harness suspends it until a wakeup makes
// it runnable AND the scheduler selects it), and sched's resume path calls
// Unblock instead of signalling the condition variable. Both return false
// when the thread is not under harness control, in which case sched falls
// back to its normal host-blocking path.
//
// This package is deliberately a leaf: it imports nothing from the repo,
// so every substrate package can depend on it without cycles. Thread
// identities cross the interface as `any` for the same reason.
package simhook

import "sync/atomic"

// Point identifies one instrumented protocol boundary.
type Point uint8

// Yield/Note points. The Sp* points come from splock, Cx* from cxlock,
// Ref* from refcount, Obj* from object, Sched* from sched.
const (
	PointInvalid Point = iota

	// splock boundaries.
	SpLock     // Yield: entry to Lock, before the first test-and-set
	SpSpin     // Yield: one failed spin iteration (lock observed held)
	SpUnlock   // Yield: entry to Unlock, lock still held
	SpTry      // Yield: entry to TryLock
	SpAcquired // Note: the test-and-set succeeded
	SpReleased // Note: the release store happened
	SpEnqueued // Note: queue-lock waiter appended its qnode (n = ticket)
	SpHandoff  // Note: queue-lock holder handed the lock to its successor

	// cxlock boundaries. The *Enter points are scheduling points outside
	// the interlock; the *Grant/Want/Release points are Notes emitted
	// inside the interlock where the state transition commits.
	CxRead        // Yield: entry to Read
	CxWrite       // Yield: entry to Write
	CxDone        // Yield: entry to Done
	CxTryRead     // Yield: entry to TryRead (ForceFail consulted)
	CxTryWrite    // Yield: entry to TryWrite (ForceFail consulted)
	CxUpgrade     // Yield: entry to ReadToWrite
	CxTryUpgrade  // Yield: entry to TryReadToWrite (ForceFail consulted)
	CxDowngrade   // Yield: entry to WriteToRead
	CxSpin        // Yield: one spin iteration inside wait() (interlock released)
	CxAcquired    // Yield: acquisition complete, interlock released
	CxBiasPublish // Yield: biased reader published its slot, about to recheck

	CxReadGrant        // Note: readCount++ granted to a plain reader
	CxReadGrantRec     // Note: readCount++ granted to the recursive holder
	CxRecurseGrant     // Note: recursion depth++ (holder re-acquired for write)
	CxWriteGrant       // Note: write drain complete, caller owns the lock
	CxWriteWant        // Note: wantWrite set (write request outstanding)
	CxUpgradeWant      // Note: wantUpgrade set (upgrade request outstanding)
	CxUpgradeGrant     // Note: upgrade drain complete
	CxUpgradeFail      // Note: upgrade failed, read hold released
	CxDowngradeDone    // Note: write hold converted to read hold
	CxReleaseRead      // Note: Done released a read hold
	CxReleaseWrite     // Note: Done released the write hold
	CxReleaseUpgrade   // Note: Done released an upgrade-write hold
	CxReleaseRecursive // Note: Done popped one recursion level
	CxBiasReadGrant    // Note: biased fast-path read hold granted
	CxBiasRelease      // Note: biased fast-path read hold released
	CxBiasRevoke       // Note: writer disarmed the bias
	CxBiasDrained      // Note: revocation drain complete (slots empty)
	CxBiasRearm        // Note: bias re-armed after the cooldown

	// refcount boundaries (n = resulting count).
	RefClone   // Yield+Note: reference cloned
	RefRelease // Yield+Note: reference released

	// object boundaries (object.Object, which ties lock+count together).
	ObjLock       // Note: object lock acquired (n = current refcount)
	ObjUnlock     // Note: object lock about to be released
	ObjDeactivate // Note: object deactivated (active -> false)
	ObjDestroyed  // Note: last reference gone, storage reclaimed

	// sched boundaries.
	SchedAssertWait // Yield: entry to AssertWait (may hold an interlock)
	SchedWakeup     // Yield: entry to ThreadWakeup/ThreadWakeupOne
	SchedClearWait  // Yield: entry to ClearWait
	SchedBlocked    // Note: thread committed to blocking (state=blocked)
	SchedUnblocked  // Note: thread made runnable again (n = WaitResult)

	numPoints // sentinel: one past the last point; keep last
)

var pointNames = map[Point]string{
	SpLock: "sp.lock", SpSpin: "sp.spin", SpUnlock: "sp.unlock",
	SpTry: "sp.try", SpAcquired: "sp.acquired", SpReleased: "sp.released",
	SpEnqueued: "sp.enqueued", SpHandoff: "sp.handoff",
	CxRead: "cx.read", CxWrite: "cx.write", CxDone: "cx.done",
	CxTryRead: "cx.tryread", CxTryWrite: "cx.trywrite",
	CxUpgrade: "cx.upgrade", CxTryUpgrade: "cx.tryupgrade",
	CxDowngrade: "cx.downgrade", CxSpin: "cx.spin",
	CxAcquired: "cx.acquired", CxBiasPublish: "cx.bias.publish",
	CxReadGrant: "cx.read.grant", CxReadGrantRec: "cx.read.grant.rec",
	CxRecurseGrant: "cx.recurse.grant",
	CxWriteGrant:   "cx.write.grant", CxWriteWant: "cx.write.want",
	CxUpgradeWant: "cx.upgrade.want", CxUpgradeGrant: "cx.upgrade.grant",
	CxUpgradeFail: "cx.upgrade.fail", CxDowngradeDone: "cx.downgrade.done",
	CxReleaseRead: "cx.release.read", CxReleaseWrite: "cx.release.write",
	CxReleaseUpgrade: "cx.release.upgrade", CxReleaseRecursive: "cx.release.rec",
	CxBiasReadGrant: "cx.bias.grant", CxBiasRelease: "cx.bias.release",
	CxBiasRevoke: "cx.bias.revoke", CxBiasDrained: "cx.bias.drained",
	CxBiasRearm: "cx.bias.rearm",
	RefClone:    "ref.clone", RefRelease: "ref.release",
	ObjLock: "obj.lock", ObjUnlock: "obj.unlock",
	ObjDeactivate: "obj.deactivate", ObjDestroyed: "obj.destroyed",
	SchedAssertWait: "sched.assertwait", SchedWakeup: "sched.wakeup",
	SchedClearWait: "sched.clearwait", SchedBlocked: "sched.blocked",
	SchedUnblocked: "sched.unblocked",
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if s, ok := pointNames[p]; ok {
		return s
	}
	return "point(?)"
}

// Hooks is the harness side of the seam. Implementations must tolerate
// calls from any goroutine; machsim guarantees at most one virtual thread
// executes at a time, so in practice calls are serialized.
type Hooks interface {
	// Yield is a scheduling point: the harness may suspend the caller and
	// run other virtual threads before returning. Callers must not hold
	// host-level exclusivity the harness itself needs (they may hold
	// simulated locks — a suspended holder is legal, other threads spin).
	Yield(p Point, obj any)
	// Note observes a committed protocol transition; it must not suspend
	// the caller (it may be called inside an interlock critical section).
	Note(p Point, obj any, n int64)
	// ForceFail reports whether a try-style operation at p on obj should
	// fail artificially (fault injection).
	ForceFail(p Point, obj any) bool
	// Block parks the calling virtual thread t (a *sched.Thread) until it
	// is resumed by Unblock and selected by the scheduler. It returns
	// false if t is not under harness control (caller falls back to host
	// blocking).
	Block(t any) bool
	// Unblock marks a Block-parked thread runnable without switching to
	// it. It returns false if t is not under harness control.
	Unblock(t any) bool
	// NowNs returns the harness's deterministic virtual clock.
	NowNs() int64
	// Index returns a small stable integer identity for a registered
	// virtual thread (false for threads the harness does not manage).
	// Address-hashed structures (the reader-bias slot table) use it so
	// slot assignment is deterministic across runs and processes.
	Index(t any) (int, bool)
}

// active is the installed harness; nil when disabled. The double pointer
// keeps the disabled fast path to one atomic load + nil check.
var active atomic.Pointer[Hooks]

// Install makes h the active harness. Only one harness may be active;
// installing over another panics (concurrent machsim runs cannot share
// the global seam).
func Install(h Hooks) {
	if h == nil {
		panic("simhook: Install(nil)")
	}
	if !active.CompareAndSwap(nil, &h) {
		panic("simhook: a harness is already installed")
	}
}

// Uninstall deactivates the harness.
func Uninstall() { active.Store(nil) }

// Enabled reports whether a harness is installed.
func Enabled() bool { return active.Load() != nil }

// Yield forwards to the active harness, if any.
func Yield(p Point, obj any) {
	if h := active.Load(); h != nil {
		(*h).Yield(p, obj)
	}
}

// Note forwards to the active harness, if any. The disabled path is one
// inlined load and branch; the interface call lives in note.
func Note(p Point, obj any, n int64) {
	if active.Load() != nil {
		note(p, obj, n)
	}
}

// note reloads the harness, which may have been uninstalled since Note's
// gate read it.
//
//go:noinline
func note(p Point, obj any, n int64) {
	if h := active.Load(); h != nil {
		(*h).Note(p, obj, n)
	}
}

// ForceFail forwards to the active harness; false when none.
func ForceFail(p Point, obj any) bool {
	if h := active.Load(); h != nil {
		return (*h).ForceFail(p, obj)
	}
	return false
}

// Block forwards to the active harness; false when none (caller must use
// its host blocking path).
func Block(t any) bool {
	if h := active.Load(); h != nil {
		return (*h).Block(t)
	}
	return false
}

// Unblock forwards to the active harness; false when none.
func Unblock(t any) bool {
	if h := active.Load(); h != nil {
		return (*h).Unblock(t)
	}
	return false
}

// NowNs returns the harness's virtual clock, or ok=false when no harness
// is installed (callers use the host clock).
func NowNs() (int64, bool) {
	if h := active.Load(); h != nil {
		return (*h).NowNs(), true
	}
	return 0, false
}

// Index returns the harness's stable identity for thread t, or ok=false
// when no harness is installed or t is not a managed virtual thread. Like
// Note, the disabled path is one inlined load and branch.
func Index(t any) (i int, ok bool) {
	if active.Load() != nil {
		i, ok = index(t)
	}
	return
}

// index reloads the harness, which may have been uninstalled since Index's
// gate read it.
//
//go:noinline
func index(t any) (int, bool) {
	if h := active.Load(); h != nil {
		return (*h).Index(t)
	}
	return 0, false
}
