package cxlock

// Concurrency hammer for the span engine: many threads open and close
// spans (with contended lock waits credited by wait()) while
// other goroutines continuously read the op-class quantiles and the
// Prometheus rendering — the machd daemon's steady state, where the
// scrape endpoint races live span traffic. Run under -race this pins the
// absence of data races between span begin/end, wait crediting, and the
// snapshot/quantile readers.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machlock/internal/sched"
	"machlock/internal/trace"
)

func TestSpanHammerWithConcurrentReaders(t *testing.T) {
	trace.Enable()
	defer trace.Disable()

	const (
		writers   = 8
		readers   = 4
		spansEach = 300
	)

	op := trace.NewOp("cxlocktest", t.Name())
	// Classes are process-global, so a -count rerun finds this one's
	// earlier spans: count this run's from the class's starting total.
	before := op.Snapshot().Acquisitions
	lock := NewWith(Options{
		Sleep: true,
		Name:  t.Name(),
		Class: trace.NewClass("cxlocktest", t.Name()+"-lock", trace.KindComplex),
	})

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: spans around contended critical sections, so the
	// wait-crediting path races the readers too, not just begin/end.
	threads := make([]*sched.Thread, writers)
	for i := 0; i < writers; i++ {
		threads[i] = sched.Go(fmt.Sprintf("hammer-w%d", i), func(self *sched.Thread) {
			for j := 0; j < spansEach; j++ {
				sp := trace.BeginSpan(self, op)
				lock.Write(self)
				if j%64 == 0 {
					time.Sleep(10 * time.Microsecond) // widen the contention window
				}
				lock.Done(self)
				if sp.WaitNs() < 0 {
					t.Error("negative wait credit")
				}
				sp.End()
			}
		})
	}

	// Readers: quantile snapshots and the full Prometheus rendering, the
	// two paths a live scrape exercises.
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, p := range trace.OpProfiles() {
					if p.P50Ns > p.P99Ns {
						t.Error("op quantiles inverted mid-read")
					}
				}
				var sb strings.Builder
				if err := trace.WriteProm(&sb, trace.Profiles()); err != nil {
					t.Errorf("WriteProm: %v", err)
				}
			}
		}()
	}

	for _, th := range threads {
		th.Join()
	}
	stop.Store(true)
	wg.Wait()

	p := op.Snapshot()
	if want := int64(writers * spansEach); p.Acquisitions-before != want {
		t.Fatalf("completed spans = %d, want %d", p.Acquisitions-before, want)
	}
	if p.MaxHoldNs <= 0 || p.P99HoldNs <= 0 {
		t.Fatalf("latency histogram empty: %+v", p)
	}
}
