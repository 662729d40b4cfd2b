package machsim

import (
	"testing"

	"machlock/internal/core/cxlock"
	"machlock/internal/sched"
)

// The complex lock's spin-then-park waiting must lose no wakeup.

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
