package machlock

import (
	"machlock/internal/core/cxlock"
	"machlock/internal/core/object"
	"machlock/internal/core/refcount"
	"machlock/internal/core/splock"
	"machlock/internal/sched"
)

// SimpleLock is a spinning (non-blocking) mutual exclusion lock — the
// paper's machine-dependent simple lock (Appendix A). The zero value is
// unlocked (simple_lock_init). Simple locks may not be held across
// blocking operations or context switches; the paper calls violations
// fatal.
type SimpleLock = splock.Lock

// NoopLock is the uniprocessor simple lock: every operation is a no-op,
// the equivalent of Mach compiling simple locks out of uniprocessor
// kernels through the decl_simple_lock_data macro.
type NoopLock = splock.Noop

// SimpleMutex is the machine-independent simple lock interface satisfied
// by both SimpleLock and NoopLock.
type SimpleMutex = splock.Mutex

// CheckedLock is a simple lock with the debugging discipline the paper's
// lock structure was designed to admit: holder tracking, double-acquire
// and foreign-release detection, and enforcement (via Thread) of the
// no-blocking-while-held rule.
type CheckedLock = splock.Checked

// NewCheckedLock creates a named checked simple lock.
func NewCheckedLock(name string) *CheckedLock { return splock.NewChecked(name) }

// ComplexLock is the machine-independent multiple-readers/single-writer
// lock of Appendix B, with writer priority, the Sleep and Recursive
// options, and read↔write upgrade/downgrade. The zero value is a valid
// non-sleepable lock.
type ComplexLock = cxlock.Lock

// ComplexLockStats is a snapshot of a complex lock's accounting.
type ComplexLockStats = cxlock.Stats

// ClassLock is the Section 5 custom lock with two exclusive classes of
// readers: members of a class share, the classes exclude each other, and
// neither class can starve the other. Mach's pmap modules used this shape
// to arbitrate between the two lock orders.
type ClassLock = cxlock.ClassLock

// LockClass identifies one of a ClassLock's two classes.
type LockClass = cxlock.Class

// The two classes of a ClassLock.
const (
	ForwardClass = cxlock.Forward
	ReverseClass = cxlock.Reverse
)

// NewClassLock creates an unheld two-class lock.
func NewClassLock() *ClassLock { return cxlock.NewClassLock() }

// RefCount is a reference count protected by its object's lock: Clone
// under the lock, Release may destroy (Section 8).
type RefCount = refcount.Count

// AtomicRefCount is the lock-free count Mach could not assume in 1991: the
// count every KernelObject keeps; experiment E6 compares it with RefCount.
type AtomicRefCount = refcount.Atomic

// KernelObject is the embeddable base combining a simple lock, an atomic
// reference count, and the Section 9 deactivation protocol. Embed it to obtain the
// whole discipline; always Init with a name (objects are born with one
// reference, the creator's).
type KernelObject = object.Object

// ErrDeactivated is returned by operations that find their object
// deactivated (Section 9).
var ErrDeactivated = object.ErrDeactivated

// Thread is a kernel thread identity: the entity that holds locks and
// references. Mach's implicit current_thread() becomes an explicit handle.
type Thread = sched.Thread

// Event identifies an occurrence a thread may wait for — conventionally a
// pointer to the data structure involved. The nil event can only be ended
// by ClearWait.
type Event = sched.Event

// WaitResult reports why ThreadBlock returned.
type WaitResult = sched.WaitResult

// WaitResult values.
const (
	// Awakened: the awaited event occurred.
	Awakened = sched.Awakened
	// Restarted: the thread was resumed by ClearWait.
	Restarted = sched.Restarted
	// NotWaiting: the event occurred before ThreadBlock; no wait happened.
	NotWaiting = sched.NotWaiting
)

// NewThread creates a bare thread identity for the calling goroutine.
func NewThread(name string) *Thread { return sched.New(name) }

// Go creates a thread identity and runs body on a new goroutine; Join
// waits for it.
func Go(name string, body func(t *Thread)) *Thread { return sched.Go(name, body) }

// AssertWait declares that t will wait for event e (assert_wait). Call it
// BEFORE releasing the locks protecting the awaited condition; the
// subsequent ThreadBlock cannot then lose a wakeup.
func AssertWait(t *Thread, e Event) { sched.AssertWait(t, e) }

// ThreadBlock parks t until its asserted event occurs (thread_block); it
// returns immediately with NotWaiting if the event already occurred.
func ThreadBlock(t *Thread) WaitResult { return sched.ThreadBlock(t) }

// ThreadWakeup declares event e occurred, waking all waiters
// (thread_wakeup). Returns the number of threads awakened.
func ThreadWakeup(e Event) int { return sched.ThreadWakeup(e) }

// ThreadWakeupOne wakes at most one waiter on e (thread_wakeup_one).
func ThreadWakeupOne(e Event) int { return sched.ThreadWakeupOne(e) }

// ClearWait resumes a specific thread regardless of its event
// (clear_wait); its ThreadBlock returns Restarted.
func ClearWait(t *Thread) bool { return sched.ClearWait(t) }

// ThreadSleep atomically releases a lock and waits for event e
// (thread_sleep): the wait is asserted before unlock runs, closing the
// lost-wakeup window.
func ThreadSleep(t *Thread, e Event, unlock func()) WaitResult {
	return sched.ThreadSleep(t, e, unlock)
}
