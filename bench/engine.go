package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// worker is one closed-loop caller: batch runs the next entries of its tape
// and reports how many operations it attempted, the kind to label a span
// with, and whether all of them were correct. A worker counts its own
// failures in the run's failLog.
type worker interface {
	batch() (n int, kind opKind, ok bool)
}

// failLog counts violations and keeps the first few messages.
type failLog struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

const keptFailures = 8

func (f *failLog) addf(format string, args ...any) {
	f.n.Add(1)
	f.mu.Lock()
	if len(f.msgs) < keptFailures {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// span is the benchmark-side record of one call (or one batch of kernel
// ops): taken around the call into the top layer, from the caller's side.
type span struct {
	ID      uint64 `json:"id"` // caller<<40 | per-caller sequence number
	Op      string `json:"op"`
	Caller  int    `json:"caller"`
	StartNs int64  `json:"start_ns"` // since the traced phase began
	EndNs   int64  `json:"end_ns"`
	Ops     int    `json:"ops"` // operations covered (1 for an RPC)
	OK      bool   `json:"ok"`
}

// maxSpansPerLane bounds the in-memory trace; later spans are counted as
// dropped in the span file's header.
const maxSpansPerLane = 1 << 16

// lane is the harness state of one caller. The sample and span buffers are
// allocated at set-up so the timed region allocates nothing of its own.
type lane struct {
	id int
	w  worker

	samples []int64 // ns per timed batch
	batch   int     // operations per batch, the same for every batch of a lane
	missed  int64   // batches not sampled because the buffer was full
	ops     int64

	spans   []span
	seq     uint64
	dropped int64
}

// maxSamplesPerLane holds 60 s of the fastest workload's batches.
const maxSamplesPerLane = 1 << 21

func newLanes(ws []worker) []*lane {
	lanes := make([]*lane, len(ws))
	for i, w := range ws {
		lanes[i] = &lane{id: i, w: w, samples: make([]int64, 0, maxSamplesPerLane)}
	}
	return lanes
}

// procSnap is the process-wide accounting read at phase boundaries.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     tvDur(ru.Utime) + tvDur(ru.Stime),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is what one timed stretch of closed-loop running produced.
type phase struct {
	wall    time.Duration
	ops     int64
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	samples []int64 // sorted ns per timed batch
	batch   int     // operations per batch
	missed  int64
}

func (p phase) opsPerSec() float64 { return float64(p.ops) / p.wall.Seconds() }

func (p phase) perOp(v float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return v / float64(p.ops)
}

// opMicros returns the q-quantile of the time per operation, in microseconds.
// An RPC is timed on its own; kernel ops are timed a batch at a time, so for
// them this is a quantile of batch means.
func (p phase) opMicros(q float64) float64 {
	if p.batch == 0 {
		return 0
	}
	return float64(percentile(p.samples, q)) / float64(p.batch) / 1e3
}

// percentile returns the q-quantile (nearest rank) of sorted samples.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runPhase runs the first `callers` lanes closed-loop for d: each lane issues
// its next batch as soon as the previous one returned, and finishes the batch
// in flight when the time is up. With traced set, each batch also leaves a
// span in the lane's buffer.
func runPhase(lanes []*lane, callers int, d time.Duration, traced bool) phase {
	lanes = lanes[:callers]
	for _, l := range lanes {
		l.samples = l.samples[:0]
		l.missed, l.ops = 0, 0
		if traced && l.spans == nil {
			l.spans = make([]span, 0, maxSpansPerLane)
		}
	}
	runtime.GC()

	var stop atomic.Bool
	var wg sync.WaitGroup
	before := snapProc()
	start := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				n, kind, ok := l.w.batch()
				t1 := time.Now()
				l.ops += int64(n)
				l.batch = n
				if len(l.samples) < cap(l.samples) {
					l.samples = append(l.samples, int64(t1.Sub(t0)))
				} else {
					l.missed++
				}
				if traced {
					l.seq++
					if len(l.spans) < cap(l.spans) {
						l.spans = append(l.spans, span{
							ID: uint64(l.id)<<40 | l.seq, Op: opNames[kind], Caller: l.id,
							StartNs: int64(t0.Sub(start)), EndNs: int64(t1.Sub(start)),
							Ops: n, OK: ok,
						})
					} else {
						l.dropped++
					}
				}
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	after := snapProc()

	p := phase{
		wall:    wall,
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		gcs:     after.numGC - before.numGC,
		pauseNs: after.pauseNs - before.pauseNs,
	}
	total := 0
	for _, l := range lanes {
		p.ops += l.ops
		p.missed += l.missed
		p.batch = l.batch
		total += len(l.samples)
	}
	p.samples = make([]int64, 0, total)
	for _, l := range lanes {
		p.samples = append(p.samples, l.samples...)
	}
	slices.Sort(p.samples)
	return p
}

// nopWorker is the empty operation gen.call_overhead_ns is measured on.
type nopWorker struct{}

func (nopWorker) batch() (int, opKind, bool) { return 1, opBatch, true }

// median returns the median of vs (vs is reordered).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
