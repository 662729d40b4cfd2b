package machsim

import (
	"strings"
	"testing"

	"machlock/internal/core/cxlock"
	"machlock/internal/core/splock"
	"machlock/internal/machsim/simhook"
	"machlock/internal/sched"
)

// The arsenal protocol suites: the production queue lock must survive the
// same schedule exploration the default lock does, plus its own
// obligation — FIFO handoff — and the complex lock's spin-then-park
// waiting must lose no wakeup.

// arsenalCounterScenario builds the canonical two-thread counter over a
// lock constructed with the given options.
func arsenalCounterScenario(o splock.Opts, perThread int) (func(*Sim), *int) {
	n := new(int)
	return func(s *Sim) {
		*n = 0
		l := splock.NewWith(o)
		s.Label(l, "arsenal.lock")
		body := func(_ *sched.Thread) {
			for i := 0; i < perThread; i++ {
				l.Lock()
				*n++
				l.Unlock()
			}
		}
		s.Spawn("incA", body)
		s.Spawn("incB", body)
		s.AtEnd(func(fail func(string, ...any)) {
			if *n != 2*perThread {
				fail("lost update: n=%d, want %d", *n, 2*perThread)
			}
		})
	}, n
}

// TestSimQueueLock explores the MCS queue lock exhaustively. The shadow
// model checks mutual exclusion AND FIFO handoff here: every acquisition
// emits SpEnqueued, so an acquirer overtaking an earlier waiter would be
// flagged as a fifo-handoff violation.
func TestSimQueueLock(t *testing.T) {
	scenario, _ := arsenalCounterScenario(splock.Opts{Algorithm: splock.Queue}, 2)
	res := Explore(scenario, DFSConfig{Preemptions: 2}, Options{})
	Check(t, res)
	if !res.Exhausted {
		t.Fatalf("expected the bounded space to be exhausted: %s", res.Summary())
	}
	if res.Runs < 2 {
		t.Fatalf("expected multiple schedules, got %d", res.Runs)
	}
}

// TestSimQueueFIFOCheckerCatchesOvertake plants a forged queue-jump — a
// thread that acquires while an earlier enqueued waiter is still in line —
// by emitting the protocol notes directly, and requires the shadow model
// to flag it. A FIFO checker that cannot catch a planted overtake proves
// nothing about the real handoff path.
func TestSimQueueFIFOCheckerCatchesOvertake(t *testing.T) {
	scenario := func(s *Sim) {
		l := &struct{ _ int }{} // stands in for a queue lock identity
		s.Label(l, "forged.lock")
		var enqueued, jumped bool
		s.Spawn("patient", func(_ *sched.Thread) {
			simhook.Note(simhook.SpEnqueued, l, 0)
			enqueued = true
			for !jumped {
				simhook.Yield(simhook.SpSpin, l)
			}
			simhook.Note(simhook.SpAcquired, l, 0)
			simhook.Note(simhook.SpReleased, l, 0)
		})
		s.Spawn("jumper", func(_ *sched.Thread) {
			for !enqueued {
				simhook.Yield(simhook.SpSpin, l)
			}
			simhook.Note(simhook.SpEnqueued, l, 0)
			simhook.Note(simhook.SpAcquired, l, 0) // overtakes "patient"
			jumped = true
			simhook.Note(simhook.SpReleased, l, 0)
		})
	}
	res := Random(scenario, 50, 1, Options{})
	if !res.Failed() {
		t.Fatal("FIFO checker missed a planted queue overtake")
	}
	if res.Violations[0].Checker != "fifo-handoff" {
		t.Fatalf("expected fifo-handoff, got %v", res.Violations[0])
	}
}

// TestSimCxSpinThenPark: the complex lock's spin-then-park waiting
// strategy under spurious wakeups. A waiter inside its spin window that
// is spuriously restarted, or parked and spuriously woken, must re-check
// the lock state under the interlock — the classic lost-wakeup and
// phantom-grant hazards of mixing spinning with blocking.
func TestSimCxSpinThenPark(t *testing.T) {
	scenario := func(s *Sim) {
		l := cxlock.NewWith(cxlock.Options{SpinPark: 2, Name: "stp"})
		s.Label(l, "stp")
		n := 0
		for _, name := range []string{"w1", "w2"} {
			s.Spawn(name, func(t *sched.Thread) {
				l.Write(t)
				n++
				l.Done(t)
			})
		}
		s.AtEnd(func(fail func(string, ...any)) {
			if n != 2 {
				fail("lost update through spin-then-park: n=%d, want 2", n)
			}
		})
	}
	res := Random(scenario, 300, 5, Options{SpuriousWakeups: true})
	Check(t, res)
	res = Explore(scenario, DFSConfig{Preemptions: 2}, Options{})
	Check(t, res)
}

// TestSimCxInterlockAlgorithms runs the complex-lock writer pair over
// the queue interlock: the interlock is a drop-in replacement, so the
// whole cxlock protocol must hold unchanged on top of it. The
// SimLock-only policies' rows check that cxlock refuses them as an
// interlock, as splock's production constructors do.
func TestSimCxInterlockAlgorithms(t *testing.T) {
	for _, p := range []splock.Policy{splock.Queue, splock.TAS, splock.TTAS,
		splock.TCLEAR, splock.Cohort, splock.Adaptive} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			if p != splock.Queue {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "NewSimWith") {
						t.Fatalf("cxlock accepted SimLock-only interlock %v (recovered %q)", p, msg)
					}
				}()
				cxlock.NewWith(cxlock.Options{Interlock: p, Name: "il." + p.String()})
				return
			}
			scenario := func(s *Sim) {
				l := cxlock.NewWith(cxlock.Options{Interlock: p, Name: "il." + p.String()})
				s.Label(l, "il."+p.String())
				n := 0
				for _, name := range []string{"w1", "w2"} {
					s.Spawn(name, func(t *sched.Thread) {
						l.Write(t)
						n++
						l.Done(t)
					})
				}
				s.AtEnd(func(fail func(string, ...any)) {
					if n != 2 {
						fail("lost update over %s interlock: n=%d, want 2", p, n)
					}
				})
			}
			res := Explore(scenario, DFSConfig{Preemptions: 2}, Options{})
			Check(t, res)
		})
	}
}
