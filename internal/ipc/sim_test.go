package ipc

// Machsim suite for the Section 10 dispatch path: kernel operations racing
// object termination over explored schedules. The raw -race version,
// TestOperationsRaceWithTermination in rpc_test.go, stays as a shortened
// smoke test; this is the deterministic twin. Internal test package so it
// can reuse setupServer and kobj; machsim does not import ipc, so there is
// no cycle.

import (
	"testing"

	"machlock/internal/core/splock"
	"machlock/internal/machsim"
	"machlock/internal/sched"
)

// TestSimOperationsRaceWithTermination explores the paper's core safety
// claim (E10) deterministically: a client's kernel operations race a
// terminator's shutdown RPC on the same service port, and on every schedule
// no touch may land on a destroyed structure — the translation either
// succeeds with a covering reference or fails cleanly with ErrPortDead.
// The port is destroyed by whichever of client/terminator finishes last
// (the sim has no Join), which is also what unblocks the server loop.
func TestSimOperationsRaceWithTermination(t *testing.T) {
	scenario := func(s *machsim.Sim) {
		srv, port, k := setupServer(Mach25)
		port.TakeRef()
		var cnt splock.Lock
		remaining := 2
		finish := func() {
			cnt.Lock()
			remaining--
			last := remaining == 0
			cnt.Unlock()
			if last {
				port.Destroy()
			}
		}
		var clientCalls, clientFails int
		shutdownOK := false
		s.Label(port, "task-port")
		s.Spawn("server", func(th *sched.Thread) {
			srv.Serve(th, port)
			port.Release(nil)
		})
		s.Spawn("client", func(th *sched.Thread) {
			defer finish()
			for j := 0; j < 2; j++ {
				resp, err := Call(th, port, opGetName)
				if err != nil {
					clientFails++
					return // port died mid-operation; a clean failure
				}
				clientCalls++
				resp.Destroy()
			}
		})
		s.Spawn("terminator", func(th *sched.Thread) {
			defer finish()
			resp, err := Call(th, port, opShutdown)
			if err == nil {
				shutdownOK = true
				resp.Destroy()
			}
		})
		s.AtEnd(func(fail func(string, ...any)) {
			if !port.Destroyed() {
				fail("port not destroyed at end of run")
			}
			if !shutdownOK {
				fail("shutdown RPC failed although the port outlived the terminator")
			}
			if k.Active() {
				fail("object still active after a successful shutdown")
			}
			if clientCalls+clientFails == 0 {
				fail("client made no progress")
			}
			if st := srv.Stats(); st.Dispatches < 1 {
				fail("server dispatched nothing: %+v", st)
			}
		})
	}
	machsim.Check(t, machsim.Random(scenario, 150, 41, machsim.Options{}))
	// Three threads share the port's lock, and every contended spin is a
	// free branch point for the DFS, so this space is effectively open-ended
	// — MaxRuns is a schedule budget (distinct schedules, deterministic
	// coverage), not an exhaustion claim. The multi-subsystem scenarios in
	// machsim/scenarios carry the exhaustive shutdown-protocol verdicts.
	machsim.Check(t, machsim.Explore(scenario, machsim.DFSConfig{
		Preemptions: 1,
		Reduction:   machsim.ReduceSleep,
		MaxRuns:     2000,
	}, machsim.Options{}))
}

// TestSimTranslateRacesRemoveDestroy is the deterministic twin of
// TestSpaceTranslateRacesRemoveDestroy: a translator races the removal and
// destruction of the port it names. Translate's atomic clone is covered
// only by the table's reference, pinned by the space lock's read hold, so
// on every schedule the translation either fails with ErrBadName or clones
// a live count (the reference model's ref-resurrect checker watches every
// clone), and the port is destroyed exactly once, at the end.
func TestSimTranslateRacesRemoveDestroy(t *testing.T) {
	scenario := func(s *machsim.Sim) {
		space := NewSpace()
		port := NewPort("named")
		n := space.Insert(nil, port)
		s.Label(port, "named-port")
		translated := false
		s.Spawn("translator", func(th *sched.Thread) {
			p, err := space.Translate(th, n)
			if err != nil {
				return
			}
			translated = true
			p.Lock() // a reference is required to lock
			p.Unlock()
			p.Release(nil)
		})
		s.Spawn("remover", func(th *sched.Thread) {
			if err := space.Remove(th, n); err != nil {
				panic(err)
			}
			port.Destroy()
		})
		s.AtEnd(func(fail func(string, ...any)) {
			if !port.Destroyed() {
				fail("port survived Remove and Destroy (translated=%v)", translated)
			}
		})
	}
	res := machsim.Explore(scenario, machsim.DFSConfig{
		Preemptions: 2,
		Reduction:   machsim.ReduceSleep,
		MaxRuns:     20000,
	}, machsim.Options{})
	machsim.Check(t, res)
	if !res.Exhausted {
		t.Fatalf("space not exhausted: %s", res.Summary())
	}
}
