package splock

import (
	"sync/atomic"

	"machlock/internal/stats"
	"machlock/internal/trace"
)

// StatLock is the statistics variant of the simple lock: "A simple lock is
// stored in a C language int variable, which is part of a structure to
// allow the simple addition of debugging and statistics information"
// (Appendix A.1). It records acquisition counts, contention, hold-time and
// wait-time histograms — the data a kernel developer uses to find the
// coarse locks experiment E2 is about.
//
// The accounting costs two clock reads per critical section; use the plain
// Lock where that matters and this one while hunting contention.
type StatLock struct {
	name  string
	class *trace.Class
	l     Lock

	acquiredAt atomic.Int64 // trace.Now stamp of the current acquisition

	acquisitions atomic.Int64
	contended    atomic.Int64
	hold         stats.Histogram
	wait         stats.Histogram
}

// NewStat creates a named statistics lock, registering its name as a spin
// class with the process-wide observability layer. Per-instance statistics
// are always on; the class profile and flight-recorder events follow the
// global trace switch.
func NewStat(name string) *StatLock {
	return &StatLock{name: name, class: trace.NewClass("splock", name, trace.KindSpin)}
}

// Name returns the lock's name.
func (s *StatLock) Name() string { return s.name }

// Lock acquires the lock, recording wait time if contended.
func (s *StatLock) Lock() {
	if s.l.TryLock() { //machlock:holds — wrapper: the hold escapes to Lock's caller
		s.acquisitions.Add(1)
		now := trace.Now()
		s.acquiredAt.Store(now)
		s.class.AcquiredAt(now, 0, false, 0)
		return
	}
	s.contended.Add(1)
	start := trace.Now()
	s.class.WaitingAt(start, 0)
	s.l.Lock() //machlock:holds — wrapper: the hold escapes to Lock's caller
	now := trace.Now()
	waitNs := now - start
	s.wait.Observe(waitNs)
	s.acquisitions.Add(1)
	s.acquiredAt.Store(now)
	s.class.DoneWaitingAt(now, 0, waitNs)
	s.class.AcquiredAt(now, 0, true, waitNs)
}

// TryLock makes a single attempt.
func (s *StatLock) TryLock() bool {
	if !s.l.TryLock() { //machlock:holds — wrapper: the hold escapes to TryLock's caller
		return false
	}
	s.acquisitions.Add(1)
	now := trace.Now()
	s.acquiredAt.Store(now)
	s.class.AcquiredAt(now, 0, false, 0)
	return true
}

// Unlock releases the lock, recording the hold time. The acquisition
// timestamp is consumed (swapped to zero) so an unmatched or duplicate
// unlock cannot observe a stale timestamp and record a bogus hold sample.
func (s *StatLock) Unlock() {
	holdNs := int64(-1)
	var now int64
	if at := s.acquiredAt.Swap(0); at != 0 {
		now = trace.Now()
		holdNs = now - at
		s.hold.Observe(holdNs)
	}
	s.l.Unlock()
	s.class.ReleasedAt(now, 0, holdNs)
}

var _ Mutex = (*StatLock)(nil)

// Report is a snapshot of a StatLock's accounting.
type Report struct {
	Name         string
	Acquisitions int64
	Contended    int64
	// ContentionRate is contended acquisitions / total acquisitions.
	ContentionRate float64
	MeanHoldNs     float64
	P99HoldNs      int64
	MeanWaitNs     float64
	MaxWaitNs      int64
}

// Report returns the lock's statistics.
func (s *StatLock) Report() Report {
	acq := s.acquisitions.Load()
	con := s.contended.Load()
	r := Report{
		Name:         s.name,
		Acquisitions: acq,
		Contended:    con,
		MeanHoldNs:   s.hold.Mean(),
		P99HoldNs:    s.hold.Quantile(0.99),
		MeanWaitNs:   s.wait.Mean(),
		MaxWaitNs:    s.wait.Max(),
	}
	if acq > 0 {
		r.ContentionRate = float64(con) / float64(acq)
	}
	return r
}
