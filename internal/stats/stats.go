// Package stats provides the shared measurement plumbing used by the
// machlock experiment harness: cheap atomic counters, log-linear latency
// histograms, and a plain-text table printer whose output format is shared
// by `go test -bench` drivers and the cmd/machbench binary.
//
// The package is intentionally tiny and allocation-free on the hot paths so
// that instrumenting a lock does not perturb the contention behaviour being
// measured.
package stats

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Counter is a monotonically adjustable atomic counter. The zero value is
// ready to use.
type Counter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (which may be negative) to the counter.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.n.Swap(0) }

// Histogram is a fixed-size log-linear histogram of int64 samples
// (typically nanosecond latencies or spin iteration counts): every octave
// [2^k, 2^(k+1)) is split into 16 equal sub-buckets, so a bucket is at most
// 1/16 of its lower bound wide and a quantile read back from it is within
// ~3% of the sample. Values below 16 get a bucket each; v <= 0 counts in
// bucket 0. The zero value is ready to use. All methods are safe for
// concurrent use.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

const (
	subBits = 4 // log2 of the sub-buckets per octave
	subs    = 1 << subBits
	// numBuckets covers every positive int64: subs exact buckets, then
	// subs per octave for the octaves 2^subBits .. 2^62.
	numBuckets = subs + (63-subBits)*subs
)

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketFor(v)].Add(1)
}

// bucketFor maps v to its bucket: v itself below subs, otherwise the
// octave (shifted so the sample's top subBits+1 bits remain, a value in
// [subs, 2*subs)) selects a run of subs buckets and those bits the slot.
func bucketFor(v int64) int {
	if v < subs {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return shift<<subBits + int(v>>uint(shift))
}

// bucketMid returns the midpoint of bucket i's value range, the estimate
// Quantiles reports for samples counted there.
func bucketMid(i int) int64 {
	if i < subs {
		return int64(i)
	}
	shift := uint(i>>subBits - 1)
	lo := int64(subs+i&(subs-1)) << shift
	return lo + int64(1)<<shift/2
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed sample (zero if none).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of the samples, or zero if none were
// observed.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantiles returns estimates of the given quantiles (each 0 <= q <= 1,
// in ascending order): for each, the midpoint of the bucket holding its
// target rank, capped at Max. One pass over the buckets answers them all
// against one sample total and one max, so the answers keep the order of
// qs while writers Observe. An estimate is within 1/32 (~3%) of a sample
// in its bucket, and exact below 16.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	total := h.count.Load()
	if total == 0 {
		return out
	}
	// Observe raises max before it counts the sample in a bucket, so no
	// bucket above max's is populated and the scan can stop there.
	hi := h.max.Load()
	top := bucketFor(hi)
	var seen int64
	j := 0
	for i := 0; i <= top && j < len(qs); i++ {
		seen += h.buckets[i].Load()
		for ; j < len(qs) && seen >= max(int64(math.Ceil(qs[j]*float64(total))), 1); j++ {
			out[j] = min(bucketMid(i), hi)
		}
	}
	for ; j < len(qs); j++ {
		out[j] = hi
	}
	return out
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Table accumulates rows of experiment results and renders them as an
// aligned plain-text table. It is the single output format shared by the
// bench harness and cmd/machbench so that EXPERIMENTS.md rows can be
// regenerated verbatim.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without a fraction, small
// values with enough precision to compare.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// WriteTo renders the table to w.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("-", len(t.Title)))
		sb.WriteByte('\n')
	}
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.WriteTo(&sb)
	return sb.String()
}

// Ratio returns a/b, guarding against division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PerSecond converts an operation count over an elapsed duration into a rate.
func PerSecond(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// SortedKeys returns the sorted keys of an int-keyed map; a convenience for
// deterministic table output.
func SortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
