package machlock

import (
	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/trace"
)

// TraceClass is a registered observability class from the trace layer;
// pass one to WithClass to aggregate a lock's profile with its site.
type TraceClass = trace.Class

// Locker is the exclusive side of a machlock lock: acquire for writing,
// release. Threads identify themselves explicitly — Mach's implicit
// current_thread() made explicit. A nil thread is legal anywhere the
// lock's options don't require an identity (Recursive holds and the
// reader-bias fast path do).
type Locker interface {
	Write(t *Thread)
	TryWrite(t *Thread) bool
	Done(t *Thread)
}

// RWLocker is the full readers/writer surface of a complex lock: shared
// acquisition plus the Appendix B upgrade and downgrade operations.
// *ComplexLock implements it.
type RWLocker interface {
	Locker
	Read(t *Thread)
	TryRead(t *Thread) bool
	// ReadToWrite upgrades a read hold; false means the hold was lost to
	// a competing upgrader and the caller must restart from scratch.
	ReadToWrite(t *Thread) bool
	TryReadToWrite(t *Thread) bool
	WriteToRead(t *Thread)
}

var _ RWLocker = (*ComplexLock)(nil)

// config is the merged option sink: one With… list configures either lock
// shape. Simple-lock options land in sp, complex-lock options in cx, and
// shared options (name, class) in both; NewLock and NewSimpleLock each
// read only their half.
type config struct {
	cx cxlock.Options
	sp splock.Opts
}

// Option configures a lock built by NewLock or NewSimpleLock. Options
// compose freely; the zero configuration is a plain non-sleeping,
// non-recursive writer-priority complex lock, or the paper's default
// simple lock.
type Option func(*config)

// WithSleep enables the Sleep option: waiters block (AssertWait /
// ThreadBlock) instead of spinning, and the lock may be held across
// blocking operations. "Most complex locks use the sleep option."
// Complex locks only.
func WithSleep() Option { return func(c *config) { c.cx.Sleep = true } }

// WithRecursive permits the SetRecursive protocol (a designated holder
// may re-enter its read hold). Locks built without it panic on
// SetRecursive, making accidental recursion — the Section 7.1 deadlock
// ingredient — a loud failure instead of a latent one. Complex locks only.
func WithRecursive() Option { return func(c *config) { c.cx.Recursive = true } }

// WithReaderBias enables the BRAVO-style visible-readers fast path:
// readers that present a thread identity publish themselves in a per-lock
// slot table with one uncontended store, bypassing the central interlock
// entirely until a writer revokes the bias. Choose it for read-mostly
// locks (name-space translation, map lookup, set iteration); write-heavy
// locks only pay the revocation overhead. Complex locks only.
func WithReaderBias() Option { return func(c *config) { c.cx.ReaderBias = true } }

// WithName names the lock for debugging, deadlock reports, and lockstat
// labels.
func WithName(name string) Option {
	return func(c *config) { c.cx.Name, c.sp.Name = name, name }
}

// WithClass attaches the lock to a trace observability class; all locks
// sharing a class aggregate into one contention-profile row. A named
// class is a lock's statistics (Appendix A.1's "structure to allow the
// simple addition of debugging and statistics information"): with
// tracing enabled, its Snapshot counts every acquisition, contended
// acquisition and release exactly and times every wait and a 1-in-N
// sample of holds.
func WithClass(cl *TraceClass) Option {
	return func(c *config) { c.cx.Class, c.sp.Class = cl, cl }
}

// WithSpinThenPark sets the spin-then-park budget: waiters spin for
// budget rounds before committing to a block (implies the Sleep option —
// parking is sleeping). Complex locks only.
func WithSpinThenPark(budget int) Option {
	return func(c *config) { c.cx.SpinPark = budget }
}

// NewLock builds a complex lock from options:
//
//	l := machlock.NewLock(machlock.WithSleep(), machlock.WithReaderBias(),
//		machlock.WithName("vm.map"))
//
// This is the only supported construction path for complex locks (the
// zero value remains a valid non-sleepable lock, as lock_init allowed).
func NewLock(opts ...Option) *ComplexLock {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return cxlock.NewWith(c.cx)
}

// NewSimpleLock builds a simple lock from options:
//
//	l := machlock.NewSimpleLock(machlock.WithName("ipc.port"))
//
// Its one algorithm is the paper's: a test-and-set, then
// test-and-test-and-set spinning. Options that only apply to complex
// locks (sleep, recursion, reader bias) are ignored. The zero value of
// SimpleLock remains a valid lock.
func NewSimpleLock(opts ...Option) *SimpleLock {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return splock.NewWith(c.sp)
}
