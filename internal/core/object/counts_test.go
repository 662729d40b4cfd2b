package object

import (
	"fmt"
	"testing"

	"machlock/internal/trace"
)

// TestProfileCountsExactAtEveryRate: sampling thins what is timed and
// recorded, never what is counted. At rates 0, 1 and 16 an object's lock
// and reference traffic lands in its class profile exactly, and the ring
// holds every event at rate 1 but only the release to zero at rate 0.
func TestProfileCountsExactAtEveryRate(t *testing.T) {
	trace.Enable()
	defer trace.Disable()
	t.Cleanup(func() { trace.SetSampling(trace.DefaultSampleRate) })
	for _, rate := range []int{0, 1, 16} {
		trace.SetSampling(rate)
		trace.ResetEvents()
		cls := trace.NewClass("objecttest", fmt.Sprintf("%s-%d", t.Name(), rate), trace.KindObject)
		before := cls.Snapshot() // the registry survives in-process reruns
		o := newObj("counted")
		o.SetClass(cls)
		const pairs, refs = 100, 37
		for i := 0; i < pairs; i++ {
			o.Lock()
			o.Unlock()
		}
		for i := 0; i < refs; i++ {
			o.TakeRef()
		}
		for i := 0; i <= refs; i++ {
			o.Release(nil) // the last one destroys the object
		}
		if !o.Destroyed() {
			t.Fatalf("rate %d: object survived its last release", rate)
		}
		p := cls.Snapshot()
		locks := int64(pairs + 2*refs + 1)
		acq, rel := p.Acquisitions-before.Acquisitions, p.Releases-before.Releases
		clones, drops := p.RefClones-before.RefClones, p.RefReleases-before.RefReleases
		if acq != locks || rel != locks || clones != refs || drops != refs+1 {
			t.Fatalf("rate %d: acq/rel/clones/releases = %d/%d/%d/%d, want %d/%d/%d/%d", rate,
				acq, rel, clones, drops, locks, locks, refs, refs+1)
		}
		var events []trace.Event
		for _, e := range trace.Events(0) {
			if e.Class == cls {
				events = append(events, e)
			}
		}
		switch rate {
		case 0:
			if len(events) != 1 || events[0].Op != trace.OpRefRelease || events[0].Arg != 0 {
				t.Fatalf("rate 0: ring holds %v, want only the release to zero", events)
			}
			if p.MaxHoldNs != 0 {
				t.Fatalf("rate 0: a hold was timed (max %d ns)", p.MaxHoldNs)
			}
		case 1:
			if want := int(2*locks + refs + refs + 1); len(events) != want {
				t.Fatalf("rate 1: ring holds %d events, want %d", len(events), want)
			}
		}
	}
}
