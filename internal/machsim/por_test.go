package machsim

import (
	"fmt"
	"testing"

	"machlock/internal/core/splock"
	"machlock/internal/sched"
)

// disjointLocksScenario is the reduction benchmark: n threads, each taking
// its OWN lock iters times around its own counter. Every cross-thread pair
// of steps commutes, so the unreduced search pays the full factorial cost
// of interleaving them while the reduced search collapses each trace class
// to one representative.
func disjointLocksScenario(n, iters int) Scenario {
	return func(s *Sim) {
		for i := 0; i < n; i++ {
			l := &splock.Lock{}
			count := new(int)
			s.Label(l, fmt.Sprintf("disjoint.lock%d", i))
			s.Spawn(fmt.Sprintf("worker%d", i), func(_ *sched.Thread) {
				for k := 0; k < iters; k++ {
					l.Lock()
					*count++
					l.Unlock()
				}
			})
			s.AtEnd(func(fail func(string, ...any)) {
				if *count != iters {
					fail("lock %d: count=%d, want %d", i, *count, iters)
				}
			})
		}
	}
}

// TestSimPORReduction is the tentpole's scaling claim, measured: a
// disjoint-lock scenario whose unreduced bounded DFS blows through the
// default 10000-run cap without finishing, while sleep sets exhaust the
// same bounded space in at least 5x fewer schedules. The logged numbers
// feed EXPERIMENTS.md S2.
func TestSimPORReduction(t *testing.T) {
	sc := disjointLocksScenario(2, 6)
	const preemptions = 4

	reduced := Explore(sc, DFSConfig{Preemptions: preemptions, Reduction: ReduceSleep}, Options{})
	Check(t, reduced)
	if !reduced.Exhausted {
		t.Fatalf("sleep-set search did not exhaust the bounded space: %s", reduced.Summary())
	}

	// Under the default run cap the unreduced search cannot finish this
	// space — it was out of DFS reach before the reduction.
	capped := Explore(sc, DFSConfig{Preemptions: preemptions}, Options{})
	Check(t, capped)
	if capped.Exhausted {
		t.Fatalf("expected the unreduced search to hit the default run cap, but it exhausted in %d runs", capped.Runs)
	}

	// With the cap lifted, measure the true size of the unreduced space.
	unreduced := Explore(sc, DFSConfig{Preemptions: preemptions, MaxRuns: 1000000}, Options{})
	Check(t, unreduced)
	t.Logf("S2: unreduced %d runs / %d steps (exhausted=%v); sleep %d runs / %d steps (%d pruned); reduction %.1fx",
		unreduced.Runs, unreduced.Steps, unreduced.Exhausted,
		reduced.Runs, reduced.Steps, reduced.Pruned,
		float64(unreduced.Runs)/float64(reduced.Runs))
	if unreduced.Runs < 5*reduced.Runs {
		t.Fatalf("expected at least 5x schedule reduction: unreduced=%d reduced=%d",
			unreduced.Runs, reduced.Runs)
	}
}

// TestSimPORCrossCheckClean: sleep-set and unreduced searches must agree on
// the existing protocol suites' verdicts. Clean scenarios stay clean and
// keep their Exhausted proof.
func TestSimPORCrossCheckClean(t *testing.T) {
	scenarios := []struct {
		name string
		sc   Scenario
		cfg  DFSConfig
	}{
		{"disjoint-locks", disjointLocksScenario(2, 2), DFSConfig{Preemptions: 2}},
		{"shared-lock-counter", func(s *Sim) {
			l := &splock.Lock{}
			s.Label(l, "shared.lock")
			n := 0
			body := func(_ *sched.Thread) {
				for i := 0; i < 2; i++ {
					l.Lock()
					n++
					l.Unlock()
				}
			}
			s.Spawn("incA", body)
			s.Spawn("incB", body)
			s.AtEnd(func(fail func(string, ...any)) {
				if n != 4 {
					fail("lost update: n=%d, want 4", n)
				}
			})
		}, DFSConfig{Preemptions: 2}},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			r0, mismatches := CrossCheck(tc.sc, tc.cfg, Options{})
			for _, m := range mismatches {
				t.Errorf("cross-check: %s", m)
			}
			if r0.Failed() {
				t.Fatalf("baseline unexpectedly failed: %s", r0.Report())
			}
		})
	}
}

// TestSimPORCrossCheckBuggy: on scenarios with planted bugs sleep sets
// must find the SAME violated properties as the unreduced search — a
// reduction that prunes away the only schedule reaching a bug is unsound.
func TestSimPORCrossCheckBuggy(t *testing.T) {
	r0, mismatches := CrossCheck(lostWakeupScenario, DFSConfig{Preemptions: 1}, Options{})
	for _, m := range mismatches {
		t.Errorf("cross-check: %s", m)
	}
	if !r0.Failed() {
		t.Fatalf("baseline missed the planted lost wakeup: %s", r0.Summary())
	}
}

// TestSimPORPrunesRedundantRuns: sleep sets must actually abandon runs as
// redundant (Pruned > 0) on a commuting workload, and pruned runs must not
// cost the search its Exhausted verdict.
func TestSimPORPrunesRedundantRuns(t *testing.T) {
	res := Explore(disjointLocksScenario(3, 1),
		DFSConfig{Preemptions: 2, Reduction: ReduceSleep}, Options{})
	Check(t, res)
	if !res.Exhausted {
		t.Fatalf("expected exhaustion: %s", res.Summary())
	}
	if res.Pruned == 0 {
		t.Fatalf("expected sleep sets to prune at least one run: %s", res.Summary())
	}
}

// TestSimReductionRoundTrip: Reduction values survive String/ParseReduction
// (the frontier file's representation).
func TestSimReductionRoundTrip(t *testing.T) {
	for _, r := range []Reduction{ReduceNone, ReduceSleep} {
		got, err := ParseReduction(r.String())
		if err != nil || got != r {
			t.Fatalf("round trip of %v: got %v, err %v", r, got, err)
		}
	}
	if _, err := ParseReduction("bogus"); err == nil {
		t.Fatal("ParseReduction accepted garbage")
	}
}
