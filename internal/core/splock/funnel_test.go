package splock

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"machlock/internal/trace"
)

// hammer runs workers goroutines, each taking and releasing l iters
// times, every eighth attempt through TryLock.
func hammer(l *Lock, workers, iters int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%8 == 7 {
					for !l.TryLock() {
						runtime.Gosched()
					}
				} else {
					l.Lock()
				}
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// pileUp holds l while waiters goroutines block in Lock, waits until the
// class's spinners gauge shows all of them inside their contended wait
// (or, with tracing off, a fixed pause), then releases and lets them
// through. Every waiter's acquisition is contended by construction.
func pileUp(t *testing.T, l *Lock, c *trace.Class, waiters int, traced bool) {
	t.Helper()
	l.Lock()
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock()
			l.Unlock()
		}()
	}
	if traced {
		deadline := time.Now().Add(10 * time.Second)
		for c.Spinners() != int64(waiters) {
			if time.Now().After(deadline) {
				t.Fatalf("spinners gauge reads %d, want %d waiters", c.Spinners(), waiters)
			}
			time.Sleep(100 * time.Microsecond)
		}
	} else {
		time.Sleep(5 * time.Millisecond)
	}
	l.Unlock()
	wg.Wait()
}

// TestFunnelCountsExact: at every sampling rate a class counts each
// acquisition, release and contended acquisition exactly, and nothing
// with tracing off. The spinners gauge is back at 0 once every waiter is
// through. Subtests are named policy/rate.
func TestFunnelCountsExact(t *testing.T) {
	const workers, iters, waiters = 4, 300, 3
	defer trace.SetSampling(trace.Sampling())
	for _, rate := range []int{-1, 1, 16} { // -1: tracing off
		name := fmt.Sprintf("%v/rate=%d", TASTTAS, rate)
		t.Run(name, func(t *testing.T) {
			traced := rate >= 0
			if traced {
				trace.SetSampling(rate)
				trace.Enable()
				defer trace.Disable()
			} else {
				trace.Disable()
			}
			c := trace.NewClass("splocktest", t.Name(), trace.KindSpin)
			before := c.Snapshot()
			l := NewWith(Opts{Class: c})
			hammer(l, workers, iters)
			mid := c.Snapshot()
			pileUp(t, l, c, waiters, traced)
			after := c.Snapshot()

			wantAcq, wantContended := int64(workers*iters+1+waiters), int64(waiters)
			if !traced {
				wantAcq, wantContended = 0, 0
			}
			if got := after.Acquisitions - before.Acquisitions; got != wantAcq {
				t.Errorf("acquisitions = %d, want %d", got, wantAcq)
			}
			if got := after.Releases - before.Releases; got != wantAcq {
				t.Errorf("releases = %d, want %d", got, wantAcq)
			}
			if got := after.Contended - mid.Contended; got != wantContended {
				t.Errorf("pile-up contended = %d, want %d", got, wantContended)
			}
			if mid.Contended > mid.Acquisitions {
				t.Errorf("hammer contended %d of %d acquisitions", mid.Contended, mid.Acquisitions)
			}
			if n := c.Spinners(); n != 0 {
				t.Errorf("spinners gauge = %d after every waiter got through", n)
			}
		})
	}
}

// TestFunnelTimelinePairs: at rate 1 every acquisition is a stamped hold,
// so the timeline renders each acquire event of the class as exactly one
// hold slice ending at its release.
func TestFunnelTimelinePairs(t *testing.T) {
	defer trace.SetSampling(trace.Sampling())
	trace.SetSampling(1)
	t.Run(TASTTAS.String(), func(t *testing.T) {
		trace.ResetEvents()
		trace.Enable()
		c := trace.NewClass("splocktest", t.Name(), trace.KindSpin)
		l := NewWith(Opts{Class: c})
		hammer(l, 4, 100)
		trace.Disable()

		var evs []trace.Event
		acquires := 0
		for _, e := range trace.Events(0) {
			if e.Class != c {
				continue
			}
			evs = append(evs, e)
			if e.Op == trace.OpAcquire {
				acquires++
			}
		}
		if acquires != 400 {
			t.Fatalf("ring holds %d acquire events, want 400", acquires)
		}
		var buf bytes.Buffer
		if err := trace.WriteTimeline(&buf, evs); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		key := "splocktest/" + t.Name()
		if n := strings.Count(out, `"name":"hold `+key+`"`); n != acquires {
			t.Errorf("timeline has %d hold slices for %d acquire events", n, acquires)
		}
		if n := strings.Count(out, `"name":"release `+key+`"`); n != 0 {
			t.Errorf("timeline has %d releases without a stamped hold", n)
		}
	})
}
