package experiments

import (
	"machlock/internal/core/splock"
	"machlock/internal/hw"
	"machlock/internal/stats"
)

func init() {
	register(Experiment{ID: "e14", Title: "Lock-algorithm shootout: the arsenal vs TAS/TTAS", Run: runE14})
}

// arsenalPolicies is the shootout lineup, in the order the tables report.
var e14Policies = []splock.Policy{
	splock.TAS, splock.TTAS, splock.TASTTAS,
	splock.Queue, splock.Cohort, splock.Adaptive,
}

// runE14 extends E1's coherence argument to the whole arsenal. E1 showed
// what WAITING costs per policy; the regime that separates the arsenal is
// the HANDOFF: when a contended lock is released, TTAS pays a stampede
// (every spinner's cached copy invalidates, every spinner refetches, the
// winners' atomic attempts serialize on the line), while a queue lock
// pays one store into the successor's private flag. The cohort lock
// additionally keeps consecutive holders — and the line of the data the
// lock protects — inside one cell; the adaptive lock removes parked
// waiters from the interconnect entirely.
func runE14(cfg Config) *Result {
	res := &Result{
		ID:    "e14",
		Title: "Lock-algorithm shootout: the arsenal vs TAS/TTAS",
		Claim: "queue and cohort locks hold handoff traffic constant as spinners are added, where TAS/TTAS stampedes grow with the spinner count; the cohort additionally pins the protected data's cache line to one cell (Section 2's argument, extended)",
	}

	rounds := cfg.scale(100, 1000)

	// Deterministic handoff sweep: a fixed chain of `rounds` handoffs on a
	// two-cell machine, every other CPU waiting, driven round-robin with
	// SpinOnce (no goroutines, no host scheduling). The protected data
	// cell is written by each holder, so cross-cell transfers count how
	// often the lock DRAGS ITS DATA across the interconnect.
	hand := stats.NewTable("interconnect traffic per contended handoff (deterministic, 2 cells)",
		"policy", "cpus", "handoffs", "txns/handoff", "cross-cell", "parks")
	for _, ncpu := range []int{2, 4, 8, 16} {
		for _, p := range e14Policies {
			bus, cross, parks := arsenalHandoffPhase(ncpu, 2, p, rounds)
			hand.AddRow(p.String(), ncpu, rounds,
				stats.Ratio(float64(bus), float64(rounds)), cross, parks)
		}
	}
	res.Tables = append(res.Tables, hand)

	res.Notes = append(res.Notes,
		"expect ttas txns/handoff to GROW with cpus (the release stampede refills every spinner) while queue/adaptive stay ~flat (one grant store into the successor's flag)",
		"expect cohort cross-cell transfers well below queue's at the same cpu count: FIFO order alternates cells, the cohort batches them (handoff budget bounds the unfairness)",
		"expect adaptive parks > 0 and near-queue traffic: parked waiters cost the interconnect nothing until the wakeup IPI",
	)
	return res
}

// arsenalHandoffPhase builds the deterministic handoff chain: CPU 0 takes
// the lock, every other CPU engages as a waiter, then `rounds` times the
// holder writes the protected data cell and releases, and the waiters are
// stepped round-robin until one acquires (becoming the next holder, with
// the old holder re-engaging as a waiter). Returns interconnect
// transactions during the chain, cross-cell ownership transfers, and
// adaptive parks.
func arsenalHandoffPhase(ncpu, cells int, p splock.Policy, rounds int) (bus, cross, parks int64) {
	m := hw.NewWithConfig(hw.Config{CPUs: ncpu, Cells: cells})
	l := splock.NewSimWith(splock.SimOpts{
		Machine:   m,
		Algorithm: p,
		// A small budget so adaptive waiters actually park during the
		// engagement phase; the default would spin through short chains.
		SpinBudget: 4,
	})
	data := m.NewCell(0)

	engage := func(id int) {
		for k := 0; k < 8; k++ {
			if l.SpinOnce(m.CPU(id)) {
				panic("experiments: waiter acquired a held lock")
			}
		}
	}
	l.Lock(m.CPU(0)) //machlock:holds — the chain ends with the last handoff's winner still holding
	holder := 0
	for i := 1; i < ncpu; i++ {
		engage(i)
	}
	m.ResetBus()
	for r := 0; r < rounds; r++ {
		c := m.CPU(holder)
		data.Store(c, int64(r)) // the data the lock protects follows the holder
		l.Unlock(c)
		prev := holder
		holder = -1
		// Step EVERY waiter once per sweep, and finish the sweep even
		// after one wins: the losers' post-release steps are the stampede
		// (each refills its invalidated copy; under TAS each also retries
		// the atomic swap). Rotating the sweep start spreads wins across
		// CPUs — and so across cells — for the policies with no queue.
		for holder == -1 {
			for k := 1; k < ncpu; k++ {
				i := (prev + k) % ncpu
				if l.SpinOnce(m.CPU(i)) {
					if holder != -1 {
						panic("experiments: two CPUs acquired one handoff")
					}
					holder = i
				}
			}
		}
		engage(prev)
	}
	st := l.Stats()
	return m.BusTransactions(), m.CrossCellTransfers(), st.Parks
}
