package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
	"machlock/internal/stats"
)

func init() {
	register(Experiment{ID: "e3", Title: "Writer priority prevents writer starvation", Run: runE3})
	register(Experiment{ID: "e4", Title: "Read-to-write upgrade vs write-then-downgrade", Run: runE4})
	register(Experiment{ID: "e5", Title: "Spin vs Sleep option across hold times", Run: runE5})
}

// readerPrefLock is a deliberately naive readers/writers lock WITHOUT
// writer priority: readers are always admitted while any reader holds the
// lock. It exists only as the baseline Mach rejected — under a reader
// flood, a writer starves.
type readerPrefLock struct {
	mu      sync.Mutex
	readers int
	writer  bool
}

func (l *readerPrefLock) rlock() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer {
		return false
	}
	l.readers++
	return true
}

func (l *readerPrefLock) runlock() {
	l.mu.Lock()
	l.readers--
	l.mu.Unlock()
}

func (l *readerPrefLock) wlock() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer || l.readers > 0 {
		return false
	}
	l.writer = true
	return true
}

func (l *readerPrefLock) wunlock() {
	l.mu.Lock()
	l.writer = false
	l.mu.Unlock()
}

// writerWaitObserver raises waiting when the writer thread begins a wait
// on lock: from then on its request is registered, and a reader admitted
// is admitted past it.
type writerWaitObserver struct {
	lock    *cxlock.Lock
	writer  atomic.Pointer[sched.Thread]
	waiting *atomic.Bool
}

func (o *writerWaitObserver) Waiting(l *cxlock.Lock, t *sched.Thread) {
	if l == o.lock && t == o.writer.Load() {
		o.waiting.Store(true)
	}
}

func (*writerWaitObserver) Acquired(*cxlock.Lock, *sched.Thread)    {}
func (*writerWaitObserver) Released(*cxlock.Lock, *sched.Thread)    {}
func (*writerWaitObserver) DoneWaiting(*cxlock.Lock, *sched.Thread) {}

// runE3: a flood of readers against a single writer. With Mach's writer
// priority ("readers may not be added to a lock held for reading in the
// presence of an outstanding write request") the writer's acquisitions
// complete promptly; with reader preference the writer waits for a gap
// that a dense enough flood never provides.
func runE3(cfg Config) *Result {
	writes := cfg.scale(30, 200)
	readers := 4
	window := time.Duration(cfg.scale(200, 1000)) * time.Millisecond

	res := &Result{
		ID:    "e3",
		Title: "Writer priority prevents writer starvation",
		Claim: "the Multiple protocol implements a readers/writers lock with writers priority to avoid starvation: readers may not be added to a lock held for reading in the presence of an outstanding write request (Section 4)",
	}
	table := stats.NewTable("single writer vs 4-reader flood",
		"lock", "writes-completed", "target", "reads-admitted-past-waiting-writer", "max-write-wait")

	// Oversubscribe the host so the reader flood genuinely overlaps the
	// writer instead of being serialized into scheduler quanta.
	prev := runtime.GOMAXPROCS(0)
	if prev < readers+1 {
		runtime.GOMAXPROCS(readers + 1)
		defer runtime.GOMAXPROCS(prev)
	}

	// writerWaiting marks the span in which a write request is
	// outstanding; readers that acquire during it were admitted past a
	// waiting writer — the exact behaviour writer priority forbids.
	var writerWaiting atomic.Bool
	var admittedPast atomic.Int64
	// flooding counts the readers that have been admitted at least once.
	// The writer starts only when all of them are in their loops; started
	// earlier, it can finish every write before the scheduler runs a
	// single reader, and the run measures no flood at all.
	var flooding atomic.Int64
	awaitFlood := func() {
		for flooding.Load() < int64(readers) {
			runtime.Gosched()
		}
	}

	// Mach complex lock (writer priority). The flag is raised by the
	// writer's first wait, which with one writer comes after want_write
	// is registered: raising it before Write would count readers
	// admitted, legitimately, while the writer was descheduled short of
	// its request. What may remain counted is a reader admitted just
	// before want_write whose check of the flag lands after the raise.
	{
		l := cxlock.NewWith(cxlock.Options{Sleep: true})
		ob := &writerWaitObserver{lock: l, waiting: &writerWaiting}
		cxlock.AddObserver(ob)
		defer cxlock.RemoveObserver(ob)
		writerWaiting.Store(false)
		admittedPast.Store(0)
		flooding.Store(0)
		stop := make(chan struct{})
		var rds []*sched.Thread
		for i := 0; i < readers; i++ {
			rds = append(rds, sched.Go("r", func(self *sched.Thread) {
				first := true
				for {
					select {
					case <-stop:
						return
					default:
					}
					l.Read(self)
					if first {
						flooding.Add(1)
						first = false
					}
					if writerWaiting.Load() {
						admittedPast.Add(1)
					}
					spinWork(500)
					l.Done(self)
				}
			}))
		}
		var max time.Duration
		w := sched.Go("w", func(self *sched.Thread) {
			ob.writer.Store(self)
			awaitFlood()
			for i := 0; i < writes; i++ {
				start := time.Now()
				l.Write(self)
				writerWaiting.Store(false)
				if wait := time.Since(start); wait > max {
					max = wait
				}
				l.Done(self)
				spinWork(2000) // think: let readers re-flood
			}
		})
		w.Join()
		close(stop)
		for _, r := range rds {
			r.Join()
		}
		table.AddRow("mach (writer priority)", writes, writes, admittedPast.Load(), max)
	}

	// Reader-preference baseline: readers are admitted whenever any
	// reader holds the lock, waiting writer or not.
	{
		l := &readerPrefLock{}
		writerWaiting.Store(false)
		admittedPast.Store(0)
		flooding.Store(0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				first := true
				for {
					select {
					case <-stop:
						return
					default:
					}
					if l.rlock() {
						if first {
							flooding.Add(1)
							first = false
						}
						if writerWaiting.Load() {
							admittedPast.Add(1)
						}
						spinWork(500)
						l.runlock()
					}
				}
			}()
		}
		awaitFlood()
		completed := 0
		var max time.Duration
		deadline := time.Now().Add(window)
		for completed < writes && time.Now().Before(deadline) {
			writerWaiting.Store(true)
			start := time.Now()
			acquired := false
			for time.Now().Before(deadline) {
				if l.wlock() {
					acquired = true
					break
				}
			}
			writerWaiting.Store(false)
			if !acquired {
				break
			}
			if wait := time.Since(start); wait > max {
				max = wait
			}
			completed++
			l.wunlock()
			spinWork(2000)
		}
		close(stop)
		wg.Wait()
		table.AddRow("reader preference (baseline)", completed, writes, admittedPast.Load(), max)
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"the mach lock admits (almost) no reader past a waiting writer — the nonzero residue is the instrumentation window between the writer announcing and the lock registering its request",
		"the baseline admits readers continuously while the writer waits; with a dense enough flood it misses its write target entirely (starvation)",
	)
	return res
}

// runE4 compares the two ways to get from "inspect under read lock" to
// "modify under write lock". Upgrades fail in the presence of another
// upgrade and the caller must restart from scratch; write-then-downgrade
// can never fail. Section 7.1: "A simpler alternative that avoids
// upgrades is to initially lock for writing, and downgrade … This
// downgrade cannot fail and does not require any special logic in the
// caller."
func runE4(cfg Config) *Result {
	opsPerThread := cfg.scale(2_000, 20_000)
	threads := 4
	res := &Result{
		ID:    "e4",
		Title: "Read-to-write upgrade vs write-then-downgrade",
		Claim: "a failed upgrade releases the read lock and requires recovery logic in the caller; write-then-downgrade cannot fail (Sections 4, 7.1)",
	}
	table := stats.NewTable("contending inspect-then-modify operations",
		"protocol", "threads", "ops", "restarts", "failed-upgrades", "ops/sec")

	// Upgrade protocol.
	{
		l := cxlock.NewWith(cxlock.Options{Sleep: true})
		var restarts atomic.Int64
		var shared int64
		elapsed := timeIt(func() {
			var ths []*sched.Thread
			for i := 0; i < threads; i++ {
				ths = append(ths, sched.Go("u", func(self *sched.Thread) {
					for n := 0; n < opsPerThread; n++ {
						for {
							l.Read(self)
							spinWork(5) // inspect
							if failed := l.ReadToWrite(self); failed {
								// Read hold gone; restart the operation.
								restarts.Add(1)
								continue
							}
							shared++
							l.Done(self)
							break
						}
					}
				}))
			}
			for _, th := range ths {
				th.Join()
			}
		})
		table.AddRow("read+upgrade", threads, threads*opsPerThread, restarts.Load(),
			l.Stats().FailedUpgrades, stats.PerSecond(int64(threads*opsPerThread), elapsed))
	}

	// Write-then-downgrade protocol.
	{
		l := cxlock.NewWith(cxlock.Options{Sleep: true})
		var shared int64
		elapsed := timeIt(func() {
			var ths []*sched.Thread
			for i := 0; i < threads; i++ {
				ths = append(ths, sched.Go("d", func(self *sched.Thread) {
					for n := 0; n < opsPerThread; n++ {
						l.Write(self)
						spinWork(5) // inspect (pessimistically under write)
						shared++
						l.WriteToRead(self)
						l.Done(self)
					}
				}))
			}
			for _, th := range ths {
				th.Join()
			}
		})
		table.AddRow("write+downgrade", threads, threads*opsPerThread, 0,
			l.Stats().FailedUpgrades, stats.PerSecond(int64(threads*opsPerThread), elapsed))
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"expect nonzero restarts for the upgrade protocol (each one is caller-visible recovery logic) and zero for write+downgrade",
	)
	return res
}

// runE5 sweeps critical-section hold times for the Sleep option on and
// off. The paper's case for sleep locks is not raw handoff speed — it is
// that a spinning waiter burns a processor that could be doing other work
// (and that holders of sleep locks may block). The driver therefore runs a
// BYSTANDER computation alongside the lock contention and reports how much
// of the machine the waiters left it.
func runE5(cfg Config) *Result {
	opsPerThread := cfg.scale(300, 2000)
	threads := 4
	res := &Result{
		ID:    "e5",
		Title: "Spin vs Sleep option across hold times",
		Claim: "locks that may be held across blocking or long operations need the Sleep option; spinning waiters burn processors (Section 4)",
	}
	table := stats.NewTable("4 threads contending one write lock + 1 bystander computation",
		"hold", "mode", "lock-ops/sec", "bystander-work/sec", "sleeps", "spin-loops")
	// Oversubscribe the host so the contenders genuinely interleave
	// instead of being serialized into long scheduler quanta; restore on
	// exit.
	prev := runtime.GOMAXPROCS(0)
	if prev < threads+1 {
		runtime.GOMAXPROCS(threads + 1)
		defer runtime.GOMAXPROCS(prev)
	}
	const reps = 5
	for _, hold := range []int{50, 500, 5000} {
		for _, sleepable := range []bool{false, true} {
			// Median of several repetitions: a single oversubscribed
			// run is at the mercy of scheduler placement.
			lockRates := make([]float64, 0, reps)
			byRates := make([]float64, 0, reps)
			var sleeps, spins int64
			for rep := 0; rep < reps; rep++ {
				l := cxlock.NewWith(cxlock.Options{Sleep: sleepable})
				// Real kernel spinners occupy their processor; model
				// that instead of politely yielding to the scheduler.
				l.BusyWait = true
				var bystanderOps atomic.Int64
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							spinWork(100)
							bystanderOps.Add(1)
						}
					}
				}()
				elapsed := timeIt(func() {
					var ths []*sched.Thread
					for i := 0; i < threads; i++ {
						ths = append(ths, sched.Go("w", func(self *sched.Thread) {
							for n := 0; n < opsPerThread; n++ {
								l.Write(self)
								spinWork(hold)
								l.Done(self)
							}
						}))
					}
					for _, th := range ths {
						th.Join()
					}
				})
				close(stop)
				wg.Wait()
				lockRates = append(lockRates, stats.PerSecond(int64(threads*opsPerThread), elapsed))
				byRates = append(byRates, stats.PerSecond(bystanderOps.Load(), elapsed))
				s := l.Stats()
				sleeps += s.Sleeps
				spins += s.Spins
			}
			mode := "spin"
			if sleepable {
				mode = "sleep"
			}
			table.AddRow(hold, mode, median(lockRates), median(byRates), sleeps, spins)
		}
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"the bystander column is the claim: spinning waiters compete for processors against both the lock holder and unrelated work, so under spin locks the bystander (and the holder, hence lock-ops/sec) collapse as hold time grows; sleeping waiters park and cost nothing",
		"the sleeps column shows waiters actually blocking at long holds; correctness is the other half — only sleepable locks may be held across blocking operations at all (enforced by sched.ThreadBlock)",
	)
	return res
}
