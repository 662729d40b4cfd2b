package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"machlock/internal/core/splock"
	"machlock/internal/hw"
	"machlock/internal/stats"
	"machlock/internal/trace"
)

func init() {
	register(Experiment{ID: "e1", Title: "Spin lock acquisition policies vs interconnect traffic", Run: runE1})
	register(Experiment{ID: "e2", Title: "Locking granularity: code locks vs data-structure locks", Run: runE2})
}

// runE1 reproduces Section 2's cache argument: under contention, spinning
// with the atomic test-and-set floods the interconnect (every attempt
// steals the cache line), TTAS spins locally in the cache, and
// TAS-then-TTAS matches TAS's single-transaction fast path when locks are
// mostly free. The write-through rows show the regime where the paper says
// TTAS must be substituted.
func runE1(cfg Config) *Result {
	iters := cfg.scale(500, 5000)
	res := &Result{
		ID:    "e1",
		Title: "Spin lock acquisition policies vs interconnect traffic",
		Claim: "TTAS avoids cache misses while spinning; TAS-then-TTAS adds a cheap fast path when most locks are acquired on the first attempt (Section 2)",
	}

	// Spin-phase traffic, driven deterministically: the lock is HELD by
	// CPU 0 while each of the other CPUs performs exactly `iters` spin
	// iterations (round-robin). This isolates the paper's claim — what a
	// waiting processor costs the interconnect — from host scheduling.
	table := stats.NewTable("interconnect traffic while spinning on a held lock (write-back caches)",
		"policy", "spinners", "spin-iterations", "bus-txns", "txns/iteration")
	for _, spinners := range []int{1, 2, 4, 8} {
		for _, policy := range []splock.Policy{splock.TAS, splock.TTAS} {
			bus := spinPhase(spinners, policy, iters, false)
			table.AddRow(policy.String(), spinners, spinners*iters, bus,
				stats.Ratio(float64(bus), float64(spinners*iters)))
		}
	}
	res.Tables = append(res.Tables, table)

	wt := stats.NewTable("same spin phase, write-through caches",
		"policy", "spinners", "spin-iterations", "bus-txns", "txns/iteration")
	for _, policy := range []splock.Policy{splock.TAS, splock.TTAS} {
		bus := spinPhase(1, policy, iters, true)
		wt.AddRow(policy.String(), 1, iters, bus,
			stats.Ratio(float64(bus), float64(iters)))
	}
	res.Tables = append(res.Tables, wt)

	// Full concurrent contention (subject to host scheduling, reported
	// for completeness): end-to-end bus transactions per acquisition.
	acquisitions := cfg.scale(200, 2000)
	conc := stats.NewTable("end-to-end contended acquisitions (concurrent, scheduling-dependent)",
		"policy", "cpus", "acquisitions", "bus-txns", "txns/acq")
	for _, policy := range []splock.Policy{splock.TAS, splock.TTAS, splock.TASTTAS} {
		bus, _ := contendSim(4, policy, acquisitions, false)
		conc.AddRow(policy.String(), 4, 4*acquisitions, bus,
			stats.Ratio(float64(bus), float64(4*acquisitions)))
	}
	res.Tables = append(res.Tables, conc)

	un := stats.NewTable("uncontended fast path (1 cpu)",
		"policy", "acquisitions", "first-try", "bus-txns")
	for _, policy := range []splock.Policy{splock.TAS, splock.TTAS, splock.TASTTAS} {
		m := hw.New(1)
		l := splock.NewSimWith(splock.SimOpts{Machine: m, Algorithm: policy})
		c := m.CPU(0)
		for i := 0; i < acquisitions; i++ {
			l.Lock(c)
			l.Unlock(c)
		}
		s := l.Stats()
		un.AddRow(policy.String(), s.Acquisitions, s.FirstTry, m.BusTransactions())
	}
	res.Tables = append(res.Tables, un)

	res.Notes = append(res.Notes,
		"expect ~1 txn/iteration for tas spinners (every attempt steals the line) vs ~0 for ttas (spins hit in the local cache after the first fill)",
		"expect write-through tas to pay on every attempt even alone — the paper's stated reason for substituting ttas",
	)
	return res
}

// spinPhase holds the lock on CPU 0 and drives the remaining CPUs through
// exactly iters spin iterations each, round-robin, returning the bus
// transactions the spinning generated. Deterministic: no goroutines.
func spinPhase(spinners int, policy splock.Policy, iters int, writeThrough bool) int64 {
	m := hw.NewWithConfig(hw.Config{CPUs: spinners + 1, WriteThrough: writeThrough})
	l := splock.NewSimWith(splock.SimOpts{Machine: m, Algorithm: policy})
	l.Lock(m.CPU(0)) //machlock:holds — the phase measures spinners against a lock held for its whole duration
	// Warm each spinner once so the first compulsory fill doesn't count
	// against the steady-state rate.
	for i := 1; i <= spinners; i++ {
		l.SpinOnce(m.CPU(i))
	}
	m.ResetBus()
	for n := 0; n < iters; n++ {
		for i := 1; i <= spinners; i++ {
			if l.SpinOnce(m.CPU(i)) {
				panic("experiments: acquired a held lock")
			}
		}
	}
	return m.BusTransactions()
}

// contendSim runs ncpu simulated CPUs each performing `acquisitions`
// lock/unlock pairs over one simulated lock, returning total bus
// transactions and spin loops.
func contendSim(ncpu int, policy splock.Policy, acquisitions int, writeThrough bool) (bus, spins int64) {
	m := hw.NewWithConfig(hw.Config{CPUs: ncpu, WriteThrough: writeThrough})
	l := splock.NewSimWith(splock.SimOpts{Machine: m, Algorithm: policy})
	var wg sync.WaitGroup
	for i := 0; i < ncpu; i++ {
		wg.Add(1)
		go func(c *hw.CPU) {
			defer wg.Done()
			for j := 0; j < acquisitions; j++ {
				l.Lock(c)
				spinWork(20) // short critical section
				l.Unlock(c)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	return m.BusTransactions(), l.Stats().SpinLoops
}

// runE2 reproduces the granularity argument of Sections 2 and 5: locking
// code (one lock over everything) restricts the kernel to one processor at
// a time; associating locks with data structures lets the same code run in
// parallel against different structures. The workload increments slots of
// a shared table under three granularities.
func runE2(cfg Config) *Result {
	const slots = 64
	opsPerThread := cfg.scale(5_000, 50_000)
	res := &Result{
		ID:    "e2",
		Title: "Locking granularity: code locks vs data-structure locks",
		Claim: "coarse locking structures exhibit performance bottlenecks; the alternative is to associate locks with data structures, which allows code to execute in parallel with itself (Section 2)",
	}
	table := stats.NewTable("contention and throughput by granularity",
		"granularity", "locks", "threads", "ops/sec", "wait-share", "speedup-vs-global")

	type strategy struct {
		name  string
		locks int
	}
	strategies := []strategy{
		{"global (code lock)", 1},
		{"per-subsystem", 8},
		{"per-object", slots},
	}
	// Contenders must genuinely interleave to show the bottleneck.
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	// Best-of-3 runs per cell: single-shot wall times on a small host are
	// dominated by scheduling accidents. The contention rate is the
	// structural metric: how often an acquisition found the lock held.
	measure := func(locks, threads int) (rate, waitShare float64) {
		for rep := 0; rep < 3; rep++ {
			elapsed, ws := runGranularity(locks, slots, threads, opsPerThread)
			if r := stats.PerSecond(int64(threads*opsPerThread), elapsed); r > rate {
				rate = r
				waitShare = ws
			}
		}
		return rate, waitShare
	}
	baseline := map[int]float64{}
	for _, s := range strategies {
		for _, threads := range []int{1, 2, 4} {
			rate, waitShare := measure(s.locks, threads)
			if s.locks == 1 {
				baseline[threads] = rate
			}
			table.AddRow(s.name, s.locks, threads, rate, waitShare,
				stats.Ratio(rate, baseline[threads]))
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"wait-share is the bottleneck made visible: the fraction of total thread-time spent waiting for a lock; with one code lock it explodes as threads multiply, while per-object locks stay near zero because different objects never conflict",
		"wall-clock speedup is bounded by host cores; at thread counts beyond the physical cores the wait times also absorb scheduler queuing, inflating every row — compare wait-shares at the 2-thread row for the clean signal",
	)
	return res
}

// bankClass is the one class every granularity run's locks share: its
// profile is the run's lock statistics (Appendix A.1's statistics
// structure), and the wait share needs only the totals across locks.
var bankClass = trace.NewClass("experiments", "e2.bank", trace.KindSpin)

// runGranularity returns the elapsed time and the observed wait share: the
// fraction of total thread-time spent waiting for locks. Tracing is on for
// the run (and restored after), so the class counts every contended
// acquisition exactly and times every wait.
func runGranularity(nlocks, slots, threads, opsPerThread int) (time.Duration, float64) {
	if !trace.Enabled() {
		trace.Enable()
		defer trace.Disable()
	}
	locks := make([]*splock.Lock, nlocks)
	for i := range locks {
		locks[i] = splock.NewWith(splock.Opts{Class: bankClass, Name: fmt.Sprintf("bank-%d", i)})
	}
	before := bankClass.Snapshot()
	counters := make([]struct {
		v   uint64
		pad [7]uint64 // avoid false sharing between slots
	}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := newXorshift(seed + 1)
			for i := 0; i < opsPerThread; i++ {
				slot := int(rng.next() % uint64(slots))
				lock := locks[slot*nlocks/slots]
				lock.Lock()
				counters[slot].v++
				spinWork(200) // the critical section dominates the loop
				lock.Unlock()
			}
		}(uint64(t))
	}
	wg.Wait()
	elapsed := time.Since(start)
	// The class outlives the run, so the run's total wait is the
	// difference of the class's totals (contended count × mean wait).
	after := bankClass.Snapshot()
	waitNs := after.MeanWaitNs*float64(after.Contended) - before.MeanWaitNs*float64(before.Contended)
	return elapsed, stats.Ratio(waitNs, float64(elapsed.Nanoseconds())*float64(threads))
}
