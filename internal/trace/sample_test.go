package trace

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCountsMergeShards(t *testing.T) {
	var c Counts
	for i := range c.shards {
		c.shards[i].n[2].Add(int64(i + 1))
	}
	if got, want := c.Load(2), int64(nshards*(nshards+1)/2); got != want {
		t.Fatalf("Load merged %d, want %d", got, want)
	}
	if n := c.Add(2, 5); n < 6 {
		t.Fatalf("Add returned shard value %d, want the shard's running count (>= 6)", n)
	}
	if got := c.Load(0); got != 0 {
		t.Fatalf("untouched lane reads %d", got)
	}
	c.Reset(-1)
	if got := c.Load(2); got != 0 {
		t.Fatalf("Reset left %d", got)
	}
}

func TestSampledRule(t *testing.T) {
	withSampling(t, 4)
	var got []int64
	for n := int64(1); n <= 12; n++ {
		if sampled(n) {
			got = append(got, n)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("rate 4 sampled counts %v, want [1 5 9]", got)
	}
	SetSampling(1)
	if !sampled(1) || !sampled(2) {
		t.Fatal("rate 1 skipped an event")
	}
	SetSampling(0)
	if sampled(1) {
		t.Fatal("rate 0 sampled an event")
	}
	SetSampling(-3)
	if Sampling() != 0 {
		t.Fatalf("SetSampling(-3) left rate %d, want 0", Sampling())
	}
}

// TestCountsExactUnderHammer: four goroutines hammer one class's
// acquisition, release, contended and reference paths; the merged counts
// must come out exact (run under -race in CI).
func TestCountsExactUnderHammer(t *testing.T) {
	Enable()
	defer Disable()
	withSampling(t, DefaultSampleRate)
	c := testClass(t, KindObject)
	c.reset() // the registry survives in-process reruns
	const workers, iters = 4, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if c.Acquire() {
					c.ReleasedAt(Now(), 0, 10)
				} else {
					c.Release()
				}
				if i%8 == 0 {
					c.Waited(0, 50)
				}
				c.RefClone(2)
				c.RefRelease(1)
			}
		}()
	}
	wg.Wait()
	p := c.Snapshot()
	const total = workers * iters
	if p.Acquisitions != total || p.Releases != total {
		t.Fatalf("acquisitions/releases = %d/%d, want %d each", p.Acquisitions, p.Releases, total)
	}
	if p.Contended != total/8 {
		t.Fatalf("contended = %d, want %d", p.Contended, total/8)
	}
	if p.RefClones != total || p.RefReleases != total {
		t.Fatalf("ref clones/releases = %d/%d, want %d each", p.RefClones, p.RefReleases, total)
	}
	// Each shard samples its 1st, N+1-th, ... acquisition, so the hold
	// histogram holds about 1-in-N of them, plus at most one per shard.
	if m := c.hold.Count(); m < total/DefaultSampleRate || m > total/DefaultSampleRate+nshards {
		t.Fatalf("%d sampled holds out of %d acquisitions at rate %d", m, total, DefaultSampleRate)
	}
}

// TestSampledHoldQuantiles checks the error bound DESIGN §7 states for the
// hold histogram under 1-in-N sampling: with m sampled holds drawn from a
// distribution, the reported q-quantile lies between the exact quantiles
// of all holds at ranks q ± 4·sqrt(q(1-q)/m), widened by the histogram's
// bucket error of 1/32.
func TestSampledHoldQuantiles(t *testing.T) {
	Enable()
	defer Disable()
	withSampling(t, DefaultSampleRate)
	c := testClass(t, KindSpin)
	c.reset()
	rng := rand.New(rand.NewSource(7))
	const n = 1 << 16
	all := make([]int64, n)
	for i := range all {
		// Exponential holds around 2 µs with a 100 ns floor: a long
		// right tail, so p99 is far from p50.
		hold := 100 + int64(rng.ExpFloat64()*2000)
		all[i] = hold
		if c.Acquire() {
			c.ReleasedAt(1, 0, hold)
		} else {
			c.Release()
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	exact := func(q float64) float64 {
		i := int(math.Ceil(q*n)) - 1
		return float64(all[min(max(i, 0), n-1)])
	}
	m := float64(c.hold.Count())
	if m < n/DefaultSampleRate {
		t.Fatalf("only %v sampled holds out of %d", m, n)
	}
	for _, q := range []float64{0.50, 0.99} {
		band := 4 * math.Sqrt(q*(1-q)/m)
		lo := exact(q-band) * (1 - 1.0/32)
		hi := exact(q+band) * (1 + 1.0/32)
		got := float64(c.HoldQuantile(q))
		if got < lo || got > hi {
			t.Errorf("p%v of sampled holds = %v, exact %v, bound [%v, %v]", q*100, got, exact(q), lo, hi)
		}
	}
}
