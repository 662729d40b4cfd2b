package trace

import (
	"sync"
	"sync/atomic"
)

// This file is the operation-span half of the attribution layer: a
// lightweight begin/end API that brackets one kernel operation (a vm fault,
// an ipc send, a task create) and splits its latency into lock-wait and
// work. Spans nest; lock waits are credited to the innermost open span of
// the waiting thread (and propagate outward when it ends, since a parent's
// wall clock contains its children's waits).
//
// Wait crediting arrives from the complex lock itself: cxlock's wait path
// brackets every wait by an identified thread with SpanWaitStart/
// SpanWaitEnd, so a span is credited whenever one is open — no install
// step — and span accounting adds nothing to lock hot paths: with no span
// open each hook is one atomic load, and wait is off every fast path.

// thread registry -----------------------------------------------------------

// threadTab maps small trace ids to thread names for timeline tracks and
// event dumps. Registration happens at thread creation (sched.New / Go),
// never on lock paths.
var threadTab struct {
	mu    sync.Mutex
	names []string // index = tid - 1
}

// RegisterThread allocates a trace id for a kernel thread. Ids are small
// and dense so the timeline export can enumerate tracks; id 0 is reserved
// for anonymous (nil-thread) operations.
func RegisterThread(name string) uint32 {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	threadTab.names = append(threadTab.names, name)
	return uint32(len(threadTab.names))
}

// ThreadName returns the name registered for tid ("" for 0 or unknown).
func ThreadName(tid uint32) string {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	if tid == 0 || int(tid) > len(threadTab.names) {
		return ""
	}
	return threadTab.names[tid-1]
}

// threadCount returns how many thread ids have been handed out.
func threadCount() int {
	threadTab.mu.Lock()
	defer threadTab.mu.Unlock()
	return len(threadTab.names)
}

// Identifiable is implemented by thread handles that carry a trace id
// (sched.Thread does). BeginSpan accepts any owner; identifiable owners
// get their spans stamped onto their timeline track.
type Identifiable interface{ TraceID() uint32 }

// op classes ---------------------------------------------------------------

// NewOp registers an operation class: a Class of KindOp whose accounting
// reads as operation latency rather than lock occupancy — Acquisitions is
// completed spans, the hold histogram is total span latency, the wait
// histogram is in-span lock wait, and the work histogram is their
// difference. Op classes ride the same registry, Prometheus exposition,
// and flight recorder as lock classes.
func NewOp(pkg, name string) *Class { return NewClass(pkg, name, KindOp) }

// spans --------------------------------------------------------------------

// Span is one open operation. All fields are owned by the operating thread;
// only the registry that finds "the current span of thread X" is shared.
// The zero Span and the nil Span are inert, so instrumented operations can
// call BeginSpan/End unconditionally — with tracing disabled BeginSpan
// returns nil and End is a nil-receiver no-op.
type Span struct {
	op     *Class
	owner  any
	parent *Span
	tid    uint32

	startNs int64
	waitNs  int64 // accumulated lock wait inside the span
	waitAt  int64 // nonzero while a lock wait is in progress
}

// curSpans maps owner (an opaque thread handle) to its innermost open span.
var curSpans sync.Map // any -> *Span

// openSpans gates the wait-crediting hooks: with no span open anywhere they
// return after one atomic load.
var openSpans atomic.Int64

// BeginSpan opens a span for an operation of class op on behalf of owner
// (normally a *sched.Thread; it must be the handle the thread also passes
// to its locks, since wait crediting matches on it). Returns nil — and
// records nothing — while tracing is disabled. owner may be nil for
// anonymous operations: latency is still recorded, but lock waits cannot
// be credited and the span appears on the anonymous timeline track.
func BeginSpan(owner any, op *Class) *Span {
	if !op.On() {
		return nil
	}
	s := &Span{op: op, owner: owner, startNs: Now()}
	if id, ok := owner.(Identifiable); ok {
		s.tid = id.TraceID()
	}
	if owner != nil {
		if prev, loaded := curSpans.Swap(owner, s); loaded {
			s.parent = prev.(*Span)
		}
	}
	openSpans.Add(1)
	emit(op.id, OpSpanBegin, 0, s.tid, s.startNs)
	return s
}

// End closes the span, recording total latency, accumulated lock wait, and
// their difference into the op class, and propagating the wait to the
// parent span (a parent's wall clock contains the child's waits). Must be
// called by the owning thread. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := Now()
	if s.waitAt != 0 {
		// A wait is still open (End inside a wait window should not
		// happen, but truncate rather than lose the time).
		s.waitNs += now - s.waitAt
		s.waitAt = 0
	}
	total := now - s.startNs
	work := total - s.waitNs
	if work < 0 {
		work = 0
	}
	c := s.op
	c.counts.Add(laneAcquire, 1)
	c.hold.Observe(total)
	c.wait.Observe(s.waitNs)
	c.work.Observe(work)
	if s.waitNs > 0 {
		c.counts.Add(laneContended, 1)
	}
	if s.owner != nil {
		if s.parent != nil {
			s.parent.waitNs += s.waitNs
			curSpans.Store(s.owner, s.parent)
		} else {
			curSpans.Delete(s.owner)
		}
	}
	openSpans.Add(-1)
	emit(c.id, OpSpanEnd, total, s.tid, now)
}

// WaitNs returns the lock wait accumulated so far (for tests).
func (s *Span) WaitNs() int64 {
	if s == nil {
		return 0
	}
	return s.waitNs
}

// Op returns the span's operation class (nil for a nil span).
func (s *Span) Op() *Class {
	if s == nil {
		return nil
	}
	return s.op
}

// CurrentSpan returns owner's innermost open span, or nil.
func CurrentSpan(owner any) *Span {
	if owner == nil {
		return nil
	}
	if v, ok := curSpans.Load(owner); ok {
		return v.(*Span)
	}
	return nil
}

// SpanWaitStart marks the beginning of a lock wait by owner. Called by
// cxlock's wait path from the waiting thread itself, so the span's fields
// need no synchronization. One atomic load when no spans are
// open anywhere.
func SpanWaitStart(owner any) {
	if openSpans.Load() == 0 || owner == nil {
		return
	}
	if v, ok := curSpans.Load(owner); ok {
		s := v.(*Span)
		if s.waitAt == 0 {
			s.waitAt = Now()
		}
	}
}

// SpanWaitEnd marks the end of a lock wait by owner, crediting the elapsed
// time to the innermost open span.
func SpanWaitEnd(owner any) {
	if openSpans.Load() == 0 || owner == nil {
		return
	}
	if v, ok := curSpans.Load(owner); ok {
		s := v.(*Span)
		if s.waitAt != 0 {
			s.waitNs += Now() - s.waitAt
			s.waitAt = 0
		}
	}
}

// SpanAddWait credits ns of lock wait directly to owner's innermost open
// span — for call sites that know the duration but cannot bracket it.
func SpanAddWait(owner any, ns int64) {
	if openSpans.Load() == 0 || owner == nil || ns <= 0 {
		return
	}
	if v, ok := curSpans.Load(owner); ok {
		v.(*Span).waitNs += ns
	}
}

// OpProfile is the point-in-time summary of one operation class, the
// latency-split view the Prometheus surface reports.
type OpProfile struct {
	Name string
	Pkg  string

	Count     int64 // completed spans
	Contended int64 // spans that waited on at least one lock

	MeanNs int64
	P50Ns  int64
	P90Ns  int64
	P99Ns  int64
	MaxNs  int64

	P50WaitNs int64
	P90WaitNs int64
	P99WaitNs int64
	P50WorkNs int64
	P90WorkNs int64
	P99WorkNs int64
}

// OpProfiles returns a snapshot of every KindOp class, registration order.
func OpProfiles() []OpProfile {
	var out []OpProfile
	for _, c := range Classes() {
		if c.kind != KindOp {
			continue
		}
		hold := c.hold.Quantiles(0.50, 0.90, 0.99)
		wait := c.wait.Quantiles(0.50, 0.90, 0.99)
		work := c.work.Quantiles(0.50, 0.90, 0.99)
		out = append(out, OpProfile{
			Name:      c.name,
			Pkg:       c.pkg,
			Count:     c.counts.Load(laneAcquire),
			Contended: c.counts.Load(laneContended),
			MeanNs:    int64(c.hold.Mean()),
			P50Ns:     hold[0],
			P90Ns:     hold[1],
			P99Ns:     hold[2],
			MaxNs:     c.hold.Max(),
			P50WaitNs: wait[0],
			P90WaitNs: wait[1],
			P99WaitNs: wait[2],
			P50WorkNs: work[0],
			P90WorkNs: work[1],
			P99WorkNs: work[2],
		})
	}
	return out
}
