// Command lockstat sweeps contention parameters over the lock
// implementations and prints CSV, for plotting the shapes the paper
// describes: interconnect traffic per acquisition by spin policy, and
// complex-lock throughput by reader/writer mix.
//
// Usage:
//
//	lockstat [-mode spin|rw] [-acq N] [-ops N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/hw"
	"machlock/internal/sched"
)

func main() {
	mode := flag.String("mode", "spin", "sweep to run: spin (policies × cpus) or rw (reader/writer mixes)")
	acq := flag.Int("acq", 1000, "acquisitions per simulated CPU (spin mode)")
	ops := flag.Int("ops", 5000, "operations per thread (rw mode)")
	flag.Parse()

	switch *mode {
	case "spin":
		spinSweep(*acq)
	case "rw":
		rwSweep(*ops)
	default:
		fmt.Fprintf(os.Stderr, "lockstat: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// spinSweep prints bus transactions per acquisition for each algorithm in
// the arsenal and each CPU count, on write-back and write-through cache
// models. Every row is labeled by algorithm (the policy column), and the
// arsenal-specific counters — queue handoffs, adaptive parks, cross-cell
// ownership transfers on the two-cell machine — ride along as columns.
func spinSweep(acquisitions int) {
	fmt.Println("cache,policy,cpus,acquisitions,bus_txns,txns_per_acq,spin_loops,handoffs,parks,cross_cell,elapsed_ms")
	sweep := []splock.Policy{
		splock.TAS, splock.TTAS, splock.TASTTAS,
		splock.Queue, splock.Cohort, splock.Adaptive,
	}
	for _, wt := range []bool{false, true} {
		cache := "write-back"
		if wt {
			cache = "write-through"
		}
		for _, ncpu := range []int{1, 2, 4, 8, 16} {
			for _, p := range sweep {
				cells := 1
				if ncpu >= 2 {
					cells = 2
				}
				m := hw.NewWithConfig(hw.Config{CPUs: ncpu, WriteThrough: wt, Cells: cells})
				l := splock.NewSimWith(splock.SimOpts{Machine: m, Algorithm: p})
				start := time.Now()
				var wg sync.WaitGroup
				for i := 0; i < ncpu; i++ {
					wg.Add(1)
					go func(c *hw.CPU) {
						defer wg.Done()
						for j := 0; j < acquisitions; j++ {
							l.Lock(c)
							l.Unlock(c)
						}
					}(m.CPU(i))
				}
				wg.Wait()
				elapsed := time.Since(start)
				total := int64(ncpu * acquisitions)
				st := l.Stats()
				fmt.Printf("%s,%s,%d,%d,%d,%.3f,%d,%d,%d,%d,%.1f\n",
					cache, p, ncpu, total, m.BusTransactions(),
					float64(m.BusTransactions())/float64(total),
					st.SpinLoops, st.Handoffs, st.Parks, m.CrossCellTransfers(),
					float64(elapsed.Microseconds())/1000)
			}
		}
	}
}

// rwSweep prints complex-lock throughput across reader/writer mixes and
// thread counts — sleepable or not, reader-biased or not.
func rwSweep(opsPerThread int) {
	fmt.Println("sleepable,biased,threads,write_pct,ops,elapsed_ms,ops_per_sec,sleeps,spins,biased_reads,revocations")
	for _, sleepable := range []bool{false, true} {
		for _, biased := range []bool{false, true} {
			for _, threads := range []int{1, 2, 4, 8} {
				for _, writePct := range []int{0, 10, 50, 100} {
					l := cxlock.NewWith(cxlock.Options{Sleep: sleepable, ReaderBias: biased, Name: "lockstat.rw"})
					start := time.Now()
					var ths []*sched.Thread
					for i := 0; i < threads; i++ {
						ths = append(ths, sched.Go("w", func(self *sched.Thread) {
							for n := 0; n < opsPerThread; n++ {
								if n%100 < writePct {
									l.Write(self)
									l.Done(self)
								} else {
									l.Read(self)
									l.Done(self)
								}
							}
						}))
					}
					for _, th := range ths {
						th.Join()
					}
					elapsed := time.Since(start)
					total := int64(threads * opsPerThread)
					s := l.Stats()
					fmt.Printf("%v,%v,%d,%d,%d,%.1f,%.0f,%d,%d,%d,%d\n",
						sleepable, biased, threads, writePct, total,
						float64(elapsed.Microseconds())/1000,
						float64(total)/elapsed.Seconds(), s.Sleeps, s.Spins,
						s.BiasedReads, s.BiasRevocations)
				}
			}
		}
	}
}
