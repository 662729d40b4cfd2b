package trace

import "sync/atomic"

// This file holds the two halves of the layer's cost rule: count what is
// fast, time what is slow. Every acquisition, release and reference
// operation of an enabled class is counted exactly, in counters sharded
// like the flight recorder so concurrent lockers do not share a cache
// line. Only a 1-in-N sample of acquisitions is timed, recorded in the
// ring, fed to the hold histogram and stack-captured, and the shard's own
// acquisition count is what picks the sample. Contended waits are always
// timed; they are off the fast path already.

// countLanes is how many counters one Counts holds.
const countLanes = 8

// countShard is one shard's counters. The stride is two cache lines, so
// a shard never shares a line with its neighbour whatever the alignment
// of the enclosing struct.
type countShard struct {
	n [countLanes]atomic.Int64
	_ [128 - countLanes*8]byte
}

// Counts is a small set of exact event counters (lanes 0..7) sharded by
// the recording goroutine (the flight recorder's shardHint). An Add
// touches only the caller's shard; Load merges the shards. The zero value
// is all zeros.
type Counts struct {
	shards [nshards]countShard
}

// Add adds d to counter lane on the caller's shard and returns that
// shard's new value (not the merged total).
func (c *Counts) Add(lane int, d int64) int64 {
	return c.shards[shardHint()].n[lane].Add(d)
}

// Load returns counter lane merged over all shards. With writers running
// it is a sum of per-shard snapshots; once they are quiescent it is exact.
func (c *Counts) Load(lane int) int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].n[lane].Load()
	}
	return sum
}

// Reset zeroes every lane except keep (a gauge of threads still in
// flight, which zeroing would leave negative once they leave it; pass -1
// to keep none).
func (c *Counts) Reset(keep int) {
	for i := range c.shards {
		for j := range c.shards[i].n {
			if j != keep {
				c.shards[i].n[j].Store(0)
			}
		}
	}
}

// The lanes of a Class's counts.
const (
	laneAcquire = iota
	laneRelease
	laneContended
	laneRefClone
	laneRefRelease
	laneSpinning // gauge: threads inside a contended simple-lock wait
)

// sampleRate is N of the 1-in-N sampling rule (see sampled). 0 samples
// nothing; 1 samples every event.
var sampleRate atomic.Uint32

// DefaultSampleRate is the rate installed at init. Sampling is what makes
// tracing affordable on the fast path: an unsampled acquisition reads no
// clock, records no event and captures no stack. Sixteen keeps the hold
// histogram and the holder-stack profiles dense enough to read within
// seconds on a busy class; DESIGN §7 states the quantile error it costs.
const DefaultSampleRate = 16

func init() { sampleRate.Store(DefaultSampleRate) }

// SetSampling sets N, the divisor of the one sampling decision: which
// acquisitions are timed, recorded in the ring, observed in the hold
// histogram and stack-captured (and, on the contended path, which waits
// capture the waiter's stack). 1 samples everything; 0 samples no hold,
// while counts stay exact and waits stay timed. n < 0 means 0. Takes
// effect immediately.
func SetSampling(n int) {
	if n < 0 {
		n = 0
	}
	sampleRate.Store(uint32(n))
}

// Sampling returns N (0 = no sampling).
func Sampling() int { return int(sampleRate.Load()) }

// sampled applies the rule to a shard count n (the value Counts.Add
// returned): the 1st, N+1-th, 2N+1-th, ... events of each shard fire.
func sampled(n int64) bool {
	rate := sampleRate.Load()
	return rate == 1 || rate != 0 && uint64(n)%uint64(rate) == 1
}
