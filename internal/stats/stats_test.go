package stats

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-2)
	if got := c.Load(); got != 3 {
		t.Fatalf("load = %d, want 3", got)
	}
	if got := c.Reset(); got != 3 {
		t.Fatalf("reset returned %d", got)
	}
	if c.Load() != 0 {
		t.Fatal("counter not zero after reset")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("load = %d", c.Load())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	if m := h.Mean(); m < 221 || m > 222 {
		t.Fatalf("mean = %f", m)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	h.Observe(100000)
	// Values below 16 have a bucket each: p50 is exact.
	if q := h.Quantiles(0.5)[0]; q != 10 {
		t.Fatalf("p50 = %d", q)
	}
	// p100 lands in the top populated bucket.
	if q := h.Quantiles(1.0)[0]; q < 65536 {
		t.Fatalf("p100 = %d", q)
	}
	var empty Histogram
	if empty.Quantiles(0.5)[0] != 0 {
		t.Fatal("empty quantile nonzero")
	}
}

func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantiles(0.5)[0]; q != 0 {
		t.Fatalf("quantile of non-positive samples = %d", q)
	}
}

// TestHistogramRelativeError: a sample anywhere from 1ns to 10s reads
// back within 4% (the log-linear design bound is 1/32), the bucket map is
// monotone and contiguous across that range, and Reset forgets everything.
func TestHistogramRelativeError(t *testing.T) {
	var h Histogram
	prev := 0
	for v := int64(1); v <= 10_000_000_000; v += max(v/97, 1) {
		for _, s := range []int64{v, v + v/3, 2*v - 1} {
			h.Observe(s)
			h.Observe(1 << 62) // keeps the Max cap from hiding the bucket error
			got := h.Quantiles(0.5)[0]
			if err := math.Abs(float64(got-s)) / float64(s); err > 0.04 {
				t.Fatalf("sample %d read back as %d (%.1f%% off)", s, got, 100*err)
			}
			h.Reset()
			if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantiles(0.5)[0] != 0 {
				t.Fatalf("Reset after %d left state behind", s)
			}
		}
		b := bucketFor(v)
		if b < prev || b > prev+1 {
			t.Fatalf("bucket map not monotone/contiguous at %d: %d after %d", v, b, prev)
		}
		prev = b
	}
	if b := bucketFor(math.MaxInt64); b != numBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d of %d", b, numBuckets)
	}
}

// TestHistogramQuantilesMonotone: over a spread of latencies the quantile
// estimates are ordered and each is within 4% of the exact order statistic.
func TestHistogramQuantilesMonotone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sample func(i int) int64
	}{
		{"linear-us", func(i int) int64 { return int64(1000 + 37*i) }},
		{"geometric", func(i int) int64 { return int64(50 * math.Pow(1.002, float64(i))) }},
		{"bimodal", func(i int) int64 { return int64(90_000 + i%100 + (i%10/9)*4_000_000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 10_000
			var h Histogram
			exact := make([]int64, n)
			for i := range exact {
				exact[i] = tc.sample(i)
				h.Observe(exact[i])
			}
			slices.Sort(exact)
			qs := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
			all := h.Quantiles(qs...)
			var prev int64
			for i, q := range qs {
				got := all[i]
				if one := h.Quantiles(q)[0]; one != got {
					t.Errorf("q%.3f = %d alone but %d among %v", q, one, got, qs)
				}
				want := exact[int(math.Ceil(q*n))-1]
				if got < prev {
					t.Errorf("q%.3f = %d below the previous quantile %d", q, got, prev)
				}
				if err := math.Abs(float64(got-want)) / float64(want); err > 0.04 {
					t.Errorf("q%.3f = %d, exact %d (%.1f%% off)", q, got, want, 100*err)
				}
				prev = got
			}
		})
	}
}

// TestHistogramQuantilesOrderedUnderWriters: quantiles read while a
// writer Observes come out ordered on every read, P50 <= P90 <= P99 <=
// Max, because one read answers them all from one pass over the buckets.
// Each round starts a fresh histogram with one large sample and then
// floods it with small ones, so the quantiles fall fastest while the
// reader reads: a read that rescanned the buckets per quantile would see
// a later, lower P90 under an earlier P50.
func TestHistogramQuantilesOrderedUnderWriters(t *testing.T) {
	const rounds, flood = 500, 2000
	reads := 0
	for r := 0; r < rounds; r++ {
		var h Histogram
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.Observe(1 << 20)
			for i := 0; i < flood; i++ {
				h.Observe(1)
			}
		}()
		for writing := true; writing; reads++ {
			select {
			case <-done:
				writing = false
			default:
			}
			q := h.Quantiles(0.50, 0.90, 0.99)
			if m := h.Max(); q[0] > q[1] || q[1] > q[2] || q[2] > m {
				t.Fatalf("round %d: p50 %d, p90 %d, p99 %d, max %d out of order", r, q[0], q[1], q[2], m)
			}
		}
	}
	if reads <= rounds {
		t.Fatalf("%d reads in %d rounds: no read overlapped a writer", reads, rounds)
	}
}

// Property: quantile estimates are within 2x of the true value for
// uniform-ish positive samples.
func TestHistogramQuantileBoundQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		max := int64(0)
		for _, r := range raw {
			v := int64(r) + 1
			h.Observe(v)
			if v > max {
				max = v
			}
		}
		q := h.Quantiles(1.0)[0]
		return q <= max && q*2 > max/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value", "rate")
	tb.AddRow("x", 42, 3.14159)
	tb.AddRow("y", time.Second, 1000000.0)
	s := tb.String()
	for _, want := range []string{"demo", "name", "x", "42", "3.14", "1s", "1000000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	if len(tb.Rows) != 2 || len(tb.Rows[0]) != 3 {
		t.Fatal("row shape wrong")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
		0.00123: "0.0012",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRatioAndPerSecond(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Fatal("ratio wrong")
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("ratio by zero not guarded")
	}
	if r := PerSecond(1000, time.Second); r != 1000 {
		t.Fatalf("per second = %f", r)
	}
	if PerSecond(1000, 0) != 0 {
		t.Fatal("per second by zero not guarded")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int]string{3: "c", 1: "a", 2: "b"}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}
