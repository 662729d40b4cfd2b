package trace

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the stack side of the attribution layer: sampled call-stack
// capture, global interning (so a hot call site costs one map hit after its
// first capture), and the per-class site profiles that answer "which call
// sites wait here, which call sites hold this lock, and which holder call
// sites CAUSE the waiting" — the causal question the flat wait histograms
// of the contention profiles cannot answer.
//
// Cost model: capture happens only while tracing is enabled, and only for
// the 1-in-N sampled acquisitions (sample.go) — the same decision that
// times the hold, so one sample yields the hold's duration, its ring
// events and its holder stack together. Waits, which are already off the
// fast path, capture the waiter's stack at the same rate. A capture is
// one runtime.Callers walk plus one hash-map probe; symbolization is
// deferred to export time.

// maxStackDepth bounds captured stacks; deep enough for kernel call chains,
// shallow enough that capture stays a few hundred nanoseconds.
const maxStackDepth = 24

// Stack is one interned call stack. Identity is pointer identity: equal
// stacks intern to the same *Stack, so site maps key on the pointer.
type Stack struct {
	id  uint32
	pcs []uintptr
}

// ID returns the stack's interning id (1-based; 0 is reserved for "no
// stack").
func (s *Stack) ID() uint32 {
	if s == nil {
		return 0
	}
	return s.id
}

// PCs returns the raw program counters, leaf first.
func (s *Stack) PCs() []uintptr {
	if s == nil {
		return nil
	}
	return s.pcs
}

// Frame is one symbolized stack frame.
type Frame struct {
	PC       uintptr
	Function string
	File     string
	Line     int
}

// Frames symbolizes the stack, leaf first.
func (s *Stack) Frames() []Frame {
	if s == nil || len(s.pcs) == 0 {
		return nil
	}
	out := make([]Frame, 0, len(s.pcs))
	frames := runtime.CallersFrames(s.pcs)
	for {
		fr, more := frames.Next()
		out = append(out, Frame{PC: fr.PC, Function: fr.Function, File: fr.File, Line: fr.Line})
		if !more {
			break
		}
	}
	return out
}

// String renders the stack one frame per line, leaf first.
func (s *Stack) String() string {
	if s == nil {
		return "<no stack>"
	}
	var b []byte
	for _, fr := range s.Frames() {
		b = append(b, fmt.Sprintf("%s (%s:%d)\n", fr.Function, fr.File, fr.Line)...)
	}
	return string(b)
}

// Leaf returns the innermost interesting frame's function name: the first
// frame outside this package and the lock packages, which is the call site
// a report should name. Falls back to the true leaf.
func (s *Stack) Leaf() string {
	frames := s.Frames()
	if len(frames) == 0 {
		return "<no stack>"
	}
	for _, fr := range frames {
		if !internalFrame(fr.Function) {
			return fr.Function
		}
	}
	return frames[0].Function
}

// internalFrame reports whether a function belongs to the instrumentation
// plumbing rather than to the code being profiled.
func internalFrame(fn string) bool {
	for _, p := range []string{
		"machlock/internal/trace.",
		"machlock/internal/core/splock.",
		"machlock/internal/core/cxlock.",
		"machlock/internal/core/object.",
	} {
		if len(fn) >= len(p) && fn[:len(p)] == p {
			return true
		}
	}
	return false
}

// stackTab is the global interning table.
var stackTab struct {
	mu   sync.Mutex
	m    map[uint64][]*Stack // hash -> candidates (collision chain)
	next uint32
}

// hashPCs mixes the pc slice into a 64-bit key.
func hashPCs(pcs []uintptr) uint64 {
	h := uint64(14695981039346656037)
	for _, pc := range pcs {
		h ^= uint64(pc)
		h *= 1099511628211
	}
	return h
}

func equalPCs(a, b []uintptr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// internStack interns the pc slice (which may be a stack-allocated scratch
// buffer; it is copied when a new entry is created).
func internStack(pcs []uintptr) *Stack {
	if len(pcs) == 0 {
		return nil
	}
	h := hashPCs(pcs)
	stackTab.mu.Lock()
	defer stackTab.mu.Unlock()
	if stackTab.m == nil {
		stackTab.m = make(map[uint64][]*Stack)
	}
	for _, s := range stackTab.m[h] {
		if equalPCs(s.pcs, pcs) {
			return s
		}
	}
	stackTab.next++
	s := &Stack{id: stackTab.next, pcs: append([]uintptr(nil), pcs...)}
	stackTab.m[h] = append(stackTab.m[h], s)
	return s
}

// CaptureStack captures and interns the calling stack, skipping skip frames
// beyond CaptureStack itself. It ignores the sampling rate — use it for
// deterministic capture in tests and tools; instrumented hot paths go
// through Class.BeginHold / Class.Waited instead.
func CaptureStack(skip int) *Stack {
	var pcs [maxStackDepth]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	if n == 0 {
		return nil
	}
	return internStack(pcs[:n])
}

// HoldInfo is what a sampled holder publishes for waiters to blame: the
// acquisition stack, the holder's thread id, and the acquisition time.
// Lock implementations stash the pointer where their waiters can read it
// (an atomic pointer next to the lock word) and clear it at release.
type HoldInfo struct {
	Stack *Stack
	TID   uint32
	Since int64 // trace-clock (Now) reading of the acquisition: the holder's hold stamp
}

// BeginHold captures the holder's stack for a sampled acquisition
// (Acquire returned true) and returns the HoldInfo the lock publishes for
// its waiters to blame and hands to EndHold at release. now is the hold
// stamp; skip counts frames above BeginHold's caller to drop. Call outside
// the lock's interlock — capture walks the stack.
func (c *Class) BeginHold(skip int, now int64, tid uint32) *HoldInfo {
	var pcs [maxStackDepth]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	return &HoldInfo{Stack: internStack(pcs[:n]), TID: tid, Since: now}
}

// EndHold accumulates a sampled hold into the class's hold-site profile.
// h may be nil (unsampled hold): no-op.
func (c *Class) EndHold(h *HoldInfo, holdNs int64) {
	if h == nil || c == nil {
		return
	}
	c.holdSites.add(h.Stack, holdNs)
}

// BlameWait attributes waitNs of lock waiting to the holder described by h.
// A nil h (the holder was not sampled, or there was no single holder)
// accumulates under the nil stack, exported as "<unattributed>"; the ratio
// of attributed to unattributed delay is itself a useful signal of the
// sampling rate's adequacy.
func (c *Class) BlameWait(h *HoldInfo, waitNs int64) {
	if c == nil || !enabled.Load() {
		return
	}
	var s *Stack
	if h != nil {
		s = h.Stack
	}
	c.blameSites.add(s, waitNs)
}

// siteProfile is one stack-keyed accumulator: counts and nanoseconds per
// interned stack. Sampled updates only, so a plain mutex suffices.
type siteProfile struct {
	mu sync.Mutex
	m  map[*Stack]*siteCounts
}

type siteCounts struct {
	count int64
	ns    int64
}

func (sp *siteProfile) add(s *Stack, ns int64) {
	sp.mu.Lock()
	if sp.m == nil {
		sp.m = make(map[*Stack]*siteCounts)
	}
	e := sp.m[s]
	if e == nil {
		e = &siteCounts{}
		sp.m[s] = e
	}
	e.count++
	e.ns += ns
	sp.mu.Unlock()
}

func (sp *siteProfile) snapshot() []Site {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Site, 0, len(sp.m))
	for s, e := range sp.m {
		out = append(out, Site{Stack: s, Count: e.count, Ns: e.ns})
	}
	return out
}

func (sp *siteProfile) reset() {
	sp.mu.Lock()
	sp.m = nil
	sp.mu.Unlock()
}

// Site is one exported site-profile row: an interned stack (nil =
// unattributed) with its sampled event count and accumulated nanoseconds.
type Site struct {
	Stack *Stack
	Count int64
	Ns    int64
}

// SiteKind selects one of the three site profiles a class accumulates.
type SiteKind int

const (
	// SiteWaits keys contended-acquisition delay by the WAITER's stack:
	// "who waits on this class, from where".
	SiteWaits SiteKind = iota
	// SiteHolds keys hold time by the HOLDER's acquisition stack: "which
	// call sites hold this class, for how long".
	SiteHolds
	// SiteBlame keys waiters' delay by the HOLDER's acquisition stack:
	// "which call sites CAUSE the waiting on this class" — the causal
	// attribution the tentpole is named for.
	SiteBlame
)

// String implements fmt.Stringer.
func (k SiteKind) String() string {
	switch k {
	case SiteWaits:
		return "waits"
	case SiteHolds:
		return "holds"
	default:
		return "blame"
	}
}

// Sites returns a snapshot of one of the class's site profiles.
func (c *Class) Sites(kind SiteKind) []Site {
	if c == nil {
		return nil
	}
	switch kind {
	case SiteWaits:
		return c.waitSites.snapshot()
	case SiteHolds:
		return c.holdSites.snapshot()
	default:
		return c.blameSites.snapshot()
	}
}
