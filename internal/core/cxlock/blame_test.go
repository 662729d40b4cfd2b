package cxlock

// Holder-blame integration: when a waiter blocks, the delay must land in
// the class's blame profile keyed by the CURRENT HOLDER's acquisition
// stack — the causal view ("who made me wait") that the waiter-keyed wait
// profile cannot give. Sampling is forced to 1 so the assertions are
// deterministic.

import (
	"strings"
	"testing"
	"time"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

// blameHolderTakesLock is the distinct call site the blame profile must
// name: the holder acquires through here, so the sampled acquisition stack
// carries this function.
func blameHolderTakesLock(l *Lock, t *sched.Thread) {
	l.Write(t)
}

func TestHolderBlameNamesCallSite(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.SetSampling(1)
	defer trace.SetSampling(trace.DefaultSampleRate)

	cls := trace.NewClass("cxlocktest", t.Name(), trace.KindComplex)
	l := NewWith(Options{Sleep: true, Name: t.Name(), Class: cls})

	held := make(chan struct{})
	holder := sched.Go("blame-holder", func(self *sched.Thread) {
		blameHolderTakesLock(l, self)
		close(held) // the hold is published before Write returns
		time.Sleep(3 * time.Millisecond)
		l.Done(self)
	})
	waiter := sched.Go("blame-waiter", func(self *sched.Thread) {
		<-held
		l.Write(self) // blocks on the published holder
		l.Done(self)
	})
	holder.Join()
	waiter.Join()

	// The waiter's delay must be attributed to the holder's call site.
	var blamedNs int64
	for _, s := range cls.Sites(trace.SiteBlame) {
		if s.Stack != nil && strings.Contains(s.Stack.String(), "blameHolderTakesLock") {
			blamedNs += s.Ns
		}
	}
	if blamedNs <= 0 {
		t.Fatalf("no blame attributed to the holder call site; sites: %+v",
			cls.Sites(trace.SiteBlame))
	}

	// The hold itself must appear in the hold profile under the same site,
	// with at least the deliberate 3ms dwell.
	var heldNs int64
	for _, s := range cls.Sites(trace.SiteHolds) {
		if s.Stack != nil && strings.Contains(s.Stack.String(), "blameHolderTakesLock") {
			heldNs += s.Ns
		}
	}
	if heldNs < (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("hold profile missed the long hold: %dns", heldNs)
	}

	// And the waiter's own stack keys the wait profile.
	var waitNs int64
	for _, s := range cls.Sites(trace.SiteWaits) {
		waitNs += s.Ns
	}
	if waitNs <= 0 {
		t.Fatalf("wait profile empty after a contended acquisition")
	}
}

// TestBlameUnsampledHolderIsUnattributed: with capture disabled the blame
// delay must land in the honest "<unattributed>" bucket, not vanish.
func TestBlameUnsampledHolderIsUnattributed(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	trace.SetSampling(0) // no holds sampled
	defer trace.SetSampling(trace.DefaultSampleRate)

	cls := trace.NewClass("cxlocktest", t.Name(), trace.KindComplex)
	l := NewWith(Options{Sleep: true, Name: t.Name(), Class: cls})

	held := make(chan struct{})
	holder := sched.Go("holder", func(self *sched.Thread) {
		l.Write(self)
		close(held)
		time.Sleep(2 * time.Millisecond)
		l.Done(self)
	})
	waiter := sched.Go("waiter", func(self *sched.Thread) {
		<-held
		l.Write(self)
		l.Done(self)
	})
	holder.Join()
	waiter.Join()

	sites := cls.Sites(trace.SiteBlame)
	if len(sites) != 1 || sites[0].Stack != nil || sites[0].Ns <= 0 {
		t.Fatalf("unattributed blame wrong: %+v", sites)
	}
	if len(cls.Sites(trace.SiteHolds)) != 0 {
		t.Fatal("hold captured with sampling disabled")
	}
}
