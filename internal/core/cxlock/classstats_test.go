package cxlock

import (
	"fmt"
	"testing"
	"time"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// classedLock returns a sleepable lock registered under a class unique to
// the calling test, with tracing on for the test's duration. The registry
// dedups by name and survives in-process reruns, so callers assert deltas
// against the returned baseline.
func classedLock(t *testing.T) (*Lock, *trace.Class, trace.Profile) {
	t.Helper()
	trace.Enable()
	t.Cleanup(trace.Disable)
	cls := trace.NewClass("cxlock", t.Name(), trace.KindComplex)
	return NewWith(Options{Sleep: true, Name: t.Name(), Class: cls}), cls, cls.Snapshot()
}

// TestClassCountsAndHistograms: a named Options.Class is the lock's
// statistics — acquisitions, downgrades and occupancy hold times land in
// the class profile with no per-instance wrapper.
func TestClassCountsAndHistograms(t *testing.T) {
	sampleEvery(t)
	l, cls, before := classedLock(t)
	th := sched.New("t")
	l.Read(th)
	l.Done(th)
	l.Write(th)
	l.WriteToRead(th)
	l.Done(th)
	p := cls.Snapshot()
	if got := p.Acquisitions - before.Acquisitions; got != 2 {
		t.Fatalf("acquisitions delta = %d, want 2", got)
	}
	if got := p.Releases - before.Releases; got != 2 {
		t.Fatalf("releases delta = %d, want 2", got)
	}
	if got := p.Downgrades - before.Downgrades; got != 1 {
		t.Fatalf("downgrades delta = %d, want 1", got)
	}
	if p.Contended != before.Contended {
		t.Fatalf("uncontended lock reports contention %d", p.Contended-before.Contended)
	}
	// Both full cycles ended an occupancy: hold samples, nonzero mean.
	if p.MeanHoldNs <= 0 || p.P99HoldNs <= 0 {
		t.Fatalf("hold histogram empty: mean=%f p99=%d", p.MeanHoldNs, p.P99HoldNs)
	}
}

func TestClassContendedWait(t *testing.T) {
	l, cls, before := classedLock(t)
	w := sched.New("w")
	l.Write(w)
	readers := make([]*sched.Thread, 4)
	for i := range readers {
		readers[i] = sched.Go(fmt.Sprintf("r%d", i), func(self *sched.Thread) {
			l.Read(self)
			l.Done(self)
		})
	}
	// Wait for all readers to be asleep on the lock so their acquisitions
	// count as contended.
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Sleeps < int64(len(readers)) {
		if time.Now().After(deadline) {
			t.Fatal("readers never slept")
		}
		time.Sleep(time.Millisecond)
	}
	l.Done(w)
	for _, r := range readers {
		r.Join()
	}
	p := cls.Snapshot()
	if got := p.Contended - before.Contended; got != int64(len(readers)) {
		t.Fatalf("contended delta = %d, want %d", got, len(readers))
	}
	if p.ContentionRate <= 0 {
		t.Fatal("contention rate not computed")
	}
	if p.MeanWaitNs <= 0 || p.MaxWaitNs <= 0 {
		t.Fatalf("wait histogram empty: mean=%f max=%d", p.MeanWaitNs, p.MaxWaitNs)
	}
}

// TestClassCountsExactAtEveryRate: grants and releases on every path —
// interlocked reads and writes, a try-read, recursive grants — are
// counted exactly whatever the sampling rate.
func TestClassCountsExactAtEveryRate(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	t.Cleanup(func() { trace.SetSampling(trace.DefaultSampleRate) })
	for _, rate := range []int{0, 1, 16} {
		trace.SetSampling(rate)
		cls := trace.NewClass("cxlock", fmt.Sprintf("%s-%d", t.Name(), rate), trace.KindComplex)
		before := cls.Snapshot() // the registry survives in-process reruns
		l := NewWith(Options{Recursive: true, Class: cls})
		th := sched.New("t")
		const rounds = 40
		for i := 0; i < rounds; i++ {
			l.Read(th)
			l.Done(th)
			l.Write(th)
			l.Done(th)
			if !l.TryRead(th) {
				t.Fatal("TryRead failed on a free lock")
			}
			if l.TryWrite(nil) {
				t.Fatal("TryWrite succeeded under a read hold")
			}
			l.Done(th)
			l.Write(th)
			l.SetRecursive(th)
			l.Write(th)
			l.Read(th)
			l.Done(th)
			l.Done(th)
			l.ClearRecursive(th)
			l.Done(th)
		}
		p := cls.Snapshot()
		// Per round: read, write, try-read, write, recursive write,
		// recursive read — 6 grants and 6 releases.
		acq, rel := p.Acquisitions-before.Acquisitions, p.Releases-before.Releases
		if acq != 6*rounds || rel != 6*rounds {
			t.Fatalf("rate %d: acquisitions/releases = %d/%d, want %d each", rate, acq, rel, 6*rounds)
		}
	}
}
