// Package trace is the process-wide lock and reference-count observability
// layer: the unified form of the debugging-and-statistics hooks the paper
// says the simple lock structure was designed to admit ("a simple lock is
// stored ... in a structure to allow the simple addition of debugging and
// statistics information", Appendix A.1), extended to every coordination
// mechanism in the kernel.
//
// It has three parts:
//
//   - A lock REGISTRY: every named coordination site (simple lock, complex
//     lock, reference count, kernel object) registers a Class — name,
//     package, kind — at creation, typically once per type in a package
//     var. All instances sharing a class aggregate into one profile row,
//     which is what a developer hunting the kernel's coarse locks wants.
//
//   - A FLIGHT RECORDER: a sharded, lock-free ring buffer of recent trace
//     events (acquire/release/wait/upgrade/downgrade/ref-clone/ref-release/
//     deactivate). Shards are selected by a per-goroutine stack hint so
//     concurrent tracers rarely share a cache line; slots are published
//     with atomic stores and validated by sequence number on read, so
//     recording never takes a lock.
//
//   - A CONTENTION PROFILE per class: acquisition and contention counters
//     plus hold-time and wait-time histograms (internal/stats.Histogram),
//     exportable as text, CSV, or expvar-style JSON.
//
// The entire layer is gated by one atomic flag: with tracing off (the
// default) every hook is a single atomic load and a predicted branch,
// mirroring the cxlock observer pattern. Instrumented call sites must
// therefore consult Class.On before doing any timing work of their own.
//
// With tracing on, the layer counts what is fast and times what is slow
// (sample.go). Every acquisition, release and reference operation is
// counted exactly, in per-goroutine-sharded counters. Only a 1-in-N
// sample of acquisitions (SetSampling, default 16) reads the clock,
// records ring events, feeds the hold histogram and captures the
// holder's stack; the rest cost a counter increment and a branch.
// Contended waits are always timed, recorded and blamed.
package trace

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"machlock/internal/stats"
)

// Kind classifies the coordination mechanism behind a Class.
type Kind uint8

// The mechanism kinds.
const (
	KindSpin    Kind = iota // splock simple locks (incl. Checked)
	KindComplex             // cxlock readers/writer locks
	KindRef                 // bare reference counts
	KindObject              // object.Object (lock + refcount + deactivate)
	KindOp                  // operation span classes (NewOp): vm.fault, ipc.send, ...
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSpin:
		return "spin"
	case KindComplex:
		return "complex"
	case KindRef:
		return "ref"
	case KindObject:
		return "object"
	case KindOp:
		return "op"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// enabled is the master switch. Off means every hook in the kernel is one
// atomic load; nothing times, counts, or records.
var enabled atomic.Bool

// Enable turns tracing and profile accounting on.
func Enable() { enabled.Store(true) }

// Disable turns tracing off. In-flight operations that observed the enabled
// state may still deliver a final sample.
func Disable() { enabled.Store(false) }

// Enabled reports whether tracing is on.
func Enabled() bool { return enabled.Load() }

// Class is one registered coordination site: the aggregation unit of the
// observability layer. Create with NewClass (usually in a package var);
// instances are shared freely between lock instances of the same type.
//
// The recording methods are nil-receiver safe and no-ops while tracing is
// disabled, so instrumented code can hold an optional *Class and call
// unconditionally after checking On for its own timing work. The
// sampled-lock funnel (Acquire, AcquireEvent, BeginHold, Release) is the
// exception: it sits on the lock fast path, so it skips that check, and
// callers reach it only after On has said yes.
type Class struct {
	id   uint32
	name string
	pkg  string
	kind Kind

	// counts holds the per-event counters (lanes laneAcquire ..
	// laneRefRelease), sharded so concurrent lockers of one class do not
	// share a line. The acquisition and contended lanes are also the
	// samplers: a shard's count picks the 1-in-N sample (sample.go).
	counts Counts

	upgrades       stats.Counter
	failedUpgrades stats.Counter
	downgrades     stats.Counter
	deactivates    stats.Counter
	biasRevokes    stats.Counter
	// hold holds the sampled holds; wait holds every contended wait.
	hold stats.Histogram
	wait stats.Histogram
	// work is used only by KindOp classes: the span's latency net of lock
	// waiting (hold = total latency, wait = lock wait, work = difference,
	// sampled per completed span so its quantiles are real, not derived).
	work stats.Histogram

	// The three stack-keyed site profiles (stack.go): contended waits by
	// waiter stack, holds by holder stack, and waiter delay blamed on the
	// holder stack that caused it.
	waitSites  siteProfile
	holdSites  siteProfile
	blameSites siteProfile

	// live is the census gauge: instances of this class currently alive
	// (objects created and not yet destroyed, zone elements constructed).
	// Unlike every other field it is NOT gated by the enabled flag — a
	// gauge that misses events while tracing is off reports garbage
	// forever after — so census updates must be rare (object lifetime, not
	// lock operations).
	live stats.Counter
}

// registry is the global class table. Registration is rare (package init,
// constructor calls); lookups by ID on the event-dump path snapshot the
// slice under the mutex.
var registry struct {
	mu    sync.Mutex
	byKey map[string]*Class
	all   []*Class
}

// NewClass registers (or, for a duplicate package/name pair, returns the
// existing) class. Registering the same site from several instances is the
// intended usage: all of them aggregate into one profile row.
func NewClass(pkg, name string, kind Kind) *Class {
	key := pkg + "/" + name
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byKey == nil {
		registry.byKey = make(map[string]*Class)
	}
	if c, ok := registry.byKey[key]; ok {
		return c
	}
	c := &Class{id: uint32(len(registry.all)), name: name, pkg: pkg, kind: kind}
	registry.byKey[key] = c
	registry.all = append(registry.all, c)
	return c
}

// Lookup returns the class registered under pkg/name, or nil.
func Lookup(pkg, name string) *Class {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.byKey[pkg+"/"+name]
}

// Classes returns a snapshot of all registered classes in registration
// order.
func Classes() []*Class {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]*Class, len(registry.all))
	copy(out, registry.all)
	return out
}

// classByID resolves an event's class id; nil if the id is stale/unknown.
func classByID(id uint32) *Class {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if int(id) < len(registry.all) {
		return registry.all[id]
	}
	return nil
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Pkg returns the registering package.
func (c *Class) Pkg() string { return c.pkg }

// Kind returns the mechanism kind.
func (c *Class) Kind() Kind { return c.kind }

// On reports whether this class should be recorded right now: tracing is
// enabled and the receiver is non-nil. Call sites use it to skip their own
// clock reads on the disabled fast path.
func (c *Class) On() bool { return c != nil && enabled.Load() }

// Acquire counts one acquisition of an instrumented lock, runs the
// lock-graph hook, and reports whether the sampler picked it. A sampled
// acquisition is the lock's to time: it stamps the hold with one clock
// reading and records it with AcquireEvent and BeginHold, and its
// release goes through ReleasedAt. An unsampled one is finished: no
// clock, no event, no histogram, and its release is Release. Call only
// after On has said yes.
func (c *Class) Acquire() bool {
	n := c.counts.Add(laneAcquire, 1)
	if graphEnabled.Load() {
		lockGraphAcquire(c)
	}
	return sampled(n)
}

// AcquireEvent records a sampled acquisition's ring event, stamped now
// (the lock's hold stamp; 0: read here) with the wait it took (0 if
// none).
func (c *Class) AcquireEvent(now int64, tid uint32, waitNs int64) {
	emit(c.id, OpAcquire, waitNs, tid, now)
}

// Release counts the release of an unsampled hold and runs the
// lock-graph hook. Call only after On has said yes; a sampled hold's
// release is ReleasedAt.
func (c *Class) Release() {
	c.counts.Add(laneRelease, 1)
	if graphEnabled.Load() {
		lockGraphRelease(c)
	}
}

// Waited records the wait of a contended acquisition, sampled or not:
// the contended count, the wait histogram and, for 1-in-N contended
// acquisitions, the waiter's own stack in the wait-site profile. Call it
// from the slow path only (the caller has already waited, so the capture
// cost is noise); skip counts frames above Waited's caller to drop.
func (c *Class) Waited(skip int, waitNs int64) {
	if !c.On() {
		return
	}
	if c.contend(waitNs) && waitNs > 0 {
		var pcs [maxStackDepth]uintptr
		if n := runtime.Callers(skip+2, pcs[:]); n > 0 {
			c.waitSites.add(internStack(pcs[:n]), waitNs)
		}
	}
}

// contend counts one contended acquisition and observes its wait; it
// reports whether the contended lane's sampler fired.
func (c *Class) contend(waitNs int64) bool {
	n := c.counts.Add(laneContended, 1)
	c.wait.Observe(waitNs)
	return sampled(n)
}

// AcquiredAt records one successful acquisition by thread tid (see
// RegisterThread; 0 means anonymous), counted, timed and recorded
// whatever the sampling rate: the form for tests and tools that feed a
// class directly. contended marks an acquisition that did not succeed on
// the first attempt; waitNs (>= 0) is how long it waited. now is the
// trace-clock reading the caller already took for its own hold stamp, so
// the event and the hold arithmetic share one reading; 0 makes the event
// take its own reading, and only after On has said yes. The same holds
// for ReleasedAt, WaitingAt and DoneWaitingAt.
func (c *Class) AcquiredAt(now int64, tid uint32, contended bool, waitNs int64) {
	if !c.On() {
		return
	}
	c.Acquire()
	if contended {
		c.contend(waitNs)
	}
	c.AcquireEvent(now, tid, waitNs)
}

// ReleasedAt records one release by thread tid with the hold time of the
// critical section (holdNs < 0 means unknown; no hold sample is
// recorded), stamped with now, normally the reading the lock subtracted
// its acquisition stamp from to get holdNs (0: read here). It is the
// release of a timed hold: the sampled locks call it for their sampled
// holds only.
func (c *Class) ReleasedAt(now int64, tid uint32, holdNs int64) {
	if !c.On() {
		return
	}
	c.Release()
	if holdNs >= 0 {
		c.hold.Observe(holdNs)
	}
	emit(c.id, OpRelease, holdNs, tid, now)
}

// WaitingAt records the start of a wait (sleep or spin) for the lock by
// thread tid, stamped with now, the reading the lock took as its wait's
// start (0: read here).
func (c *Class) WaitingAt(now int64, tid uint32) {
	if !c.On() {
		return
	}
	emit(c.id, OpWait, 0, tid, now)
}

// DoneWaitingAt records the end of thread tid's wait; waitNs is the time
// spent waiting, and now is the reading the lock took as the wait's end
// (0: read here).
func (c *Class) DoneWaitingAt(now int64, tid uint32, waitNs int64) {
	if !c.On() {
		return
	}
	emit(c.id, OpDoneWait, waitNs, tid, now)
}

// SpinStart and SpinEnd bracket a contended wait on one of the class's
// simple locks, for the spinners gauge (Spinners). Unlike every other
// recording method they are not gated by the enabled flag: a spinner
// that entered the gauge while tracing was on must leave it even if
// tracing is off by the time it wins the lock, so the lock pairs the
// calls itself, on its contended path only.
func (c *Class) SpinStart() { c.counts.Add(laneSpinning, 1) }

// SpinEnd leaves the spinners gauge; see SpinStart.
func (c *Class) SpinEnd() { c.counts.Add(laneSpinning, -1) }

// Spinners returns the threads now inside a contended wait on one of the
// class's simple locks.
func (c *Class) Spinners() int64 { return c.counts.Load(laneSpinning) }

// Upgraded records a read-to-write upgrade attempt; ok reports whether it
// succeeded (a failed upgrade released the caller's read hold).
func (c *Class) Upgraded(ok bool) {
	if !c.On() {
		return
	}
	if ok {
		c.upgrades.Inc()
		emit(c.id, OpUpgrade, 1, 0, 0)
	} else {
		c.failedUpgrades.Inc()
		emit(c.id, OpUpgrade, 0, 0, 0)
	}
}

// Downgraded records a write-to-read downgrade.
func (c *Class) Downgraded() {
	if !c.On() {
		return
	}
	c.downgrades.Inc()
	emit(c.id, OpDowngrade, 0, 0, 0)
}

// RefClone records a reference clone; refs is the count after the clone.
// It is counted exactly; its ring event is sampled like an acquisition.
func (c *Class) RefClone(refs int64) {
	if !c.On() {
		return
	}
	c.refEvent(laneRefClone, OpRefClone, refs)
}

// RefRelease records a reference release; refs is the count after the
// release (0 means the object is being destroyed). It is counted exactly;
// its ring event is sampled, except that the release to zero is always
// recorded.
func (c *Class) RefRelease(refs int64) {
	if !c.On() {
		return
	}
	c.refEvent(laneRefRelease, OpRefRelease, refs)
}

// refEvent counts one reference operation on lane and records its ring
// event when the lane's sampler fires or the count reached zero.
func (c *Class) refEvent(lane int, op Op, refs int64) {
	if n := c.counts.Add(lane, 1); sampled(n) || refs == 0 {
		emit(c.id, op, refs, 0, 0)
	}
}

// Deactivated records an object deactivation (Section 9 active
// termination).
func (c *Class) Deactivated() {
	if !c.On() {
		return
	}
	c.deactivates.Inc()
	emit(c.id, OpDeactivate, 0, 0, 0)
}

// BiasRevoked records a write request revoking a complex lock's reader
// bias (the start of a visible-readers drain).
func (c *Class) BiasRevoked() {
	if !c.On() {
		return
	}
	c.biasRevokes.Inc()
	emit(c.id, OpBiasRevoke, 0, 0, 0)
}

// CensusInc records the birth of one instance of this class (an object
// created, a zone element constructed). Always counted — the live census
// must stay correct across Enable/Disable — so call only from lifetime
// events, never from lock operations.
func (c *Class) CensusInc() {
	if c == nil {
		return
	}
	c.live.Inc()
}

// CensusDec records the death of one instance (object destroyed).
func (c *Class) CensusDec() {
	if c == nil {
		return
	}
	c.live.Add(-1)
}

// Live returns the class's census: instances currently alive.
func (c *Class) Live() int64 {
	if c == nil {
		return 0
	}
	return c.live.Load()
}

// HoldQuantile returns the q-th quantile of the class's hold-time samples
// in nanoseconds (within ~3%, like stats.Histogram). The samples are the
// 1-in-N sampled holds; DESIGN §7 states the error that adds.
func (c *Class) HoldQuantile(q float64) int64 {
	if c == nil {
		return 0
	}
	return c.hold.Quantiles(q)[0]
}

// WaitQuantile returns the q-th quantile of the class's wait-time samples.
func (c *Class) WaitQuantile(q float64) int64 {
	if c == nil {
		return 0
	}
	return c.wait.Quantiles(q)[0]
}

// Profile is a point-in-time summary of one class's accounting.
type Profile struct {
	Name string
	Pkg  string
	Kind Kind

	Acquisitions int64
	Contended    int64
	// ContentionRate is Contended / Acquisitions.
	ContentionRate float64
	Releases       int64

	MeanHoldNs float64
	P50HoldNs  int64
	P90HoldNs  int64
	P99HoldNs  int64
	MaxHoldNs  int64
	MeanWaitNs float64
	P50WaitNs  int64
	P90WaitNs  int64
	P99WaitNs  int64
	MaxWaitNs  int64

	Upgrades        int64
	FailedUpgrades  int64
	Downgrades      int64
	BiasRevocations int64

	RefClones   int64
	RefReleases int64
	Deactivates int64

	// Live is the census gauge: instances of this class currently alive.
	Live int64
}

// Snapshot returns the class's current profile.
func (c *Class) Snapshot() Profile {
	hold, wait := c.hold.Quantiles(0.50, 0.90, 0.99), c.wait.Quantiles(0.50, 0.90, 0.99)
	p := Profile{
		Name:            c.name,
		Pkg:             c.pkg,
		Kind:            c.kind,
		Acquisitions:    c.counts.Load(laneAcquire),
		Contended:       c.counts.Load(laneContended),
		Releases:        c.counts.Load(laneRelease),
		MeanHoldNs:      c.hold.Mean(),
		P50HoldNs:       hold[0],
		P90HoldNs:       hold[1],
		P99HoldNs:       hold[2],
		MaxHoldNs:       c.hold.Max(),
		MeanWaitNs:      c.wait.Mean(),
		P50WaitNs:       wait[0],
		P90WaitNs:       wait[1],
		P99WaitNs:       wait[2],
		MaxWaitNs:       c.wait.Max(),
		Upgrades:        c.upgrades.Load(),
		FailedUpgrades:  c.failedUpgrades.Load(),
		Downgrades:      c.downgrades.Load(),
		BiasRevocations: c.biasRevokes.Load(),
		RefClones:       c.counts.Load(laneRefClone),
		RefReleases:     c.counts.Load(laneRefRelease),
		Deactivates:     c.deactivates.Load(),
		Live:            c.live.Load(),
	}
	if p.Acquisitions > 0 {
		p.ContentionRate = float64(p.Contended) / float64(p.Acquisitions)
	}
	return p
}

// reset zeroes the class's accounting.
func (c *Class) reset() {
	c.counts.Reset(laneSpinning)
	c.upgrades.Reset()
	c.failedUpgrades.Reset()
	c.downgrades.Reset()
	c.deactivates.Reset()
	c.biasRevokes.Reset()
	c.hold.Reset()
	c.wait.Reset()
	c.work.Reset()
	c.waitSites.reset()
	c.holdSites.reset()
	c.blameSites.reset()
}

// Profiles returns a snapshot of every registered class, in registration
// order. Classes with zero activity are included; filter with Ranked for
// reports.
func Profiles() []Profile {
	cs := Classes()
	out := make([]Profile, len(cs))
	for i, c := range cs {
		out[i] = c.Snapshot()
	}
	return out
}

// Ranked returns the profiles with activity (acquisitions or ref traffic),
// hottest first: descending by contended acquisitions, breaking ties by
// total acquisitions, then by ref traffic. This is the ordering the
// "hottest locks" report prints.
func Ranked() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Acquisitions > 0 || p.RefClones > 0 || p.RefReleases > 0 {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Contended != out[j].Contended {
			return out[i].Contended > out[j].Contended
		}
		if out[i].Acquisitions != out[j].Acquisitions {
			return out[i].Acquisitions > out[j].Acquisitions
		}
		return out[i].RefClones+out[i].RefReleases > out[j].RefClones+out[j].RefReleases
	})
	return out
}

// ResetProfiles zeroes the accounting of every registered class (the
// classes stay registered).
func ResetProfiles() {
	for _, c := range Classes() {
		c.reset()
	}
}
