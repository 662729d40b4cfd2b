// Package machsim is a deterministic schedule-exploration harness for the
// lock and reference-count protocols: the repo's answer to "the tests pass,
// but only on the interleavings the host scheduler happened to produce".
//
// A scenario spawns N virtual threads whose bodies call the real substrate
// (splock, cxlock, refcount, object, sched — and kernel code built on
// them). The harness installs itself as the process-wide simhook seam, so
// every lock/unlock/try/upgrade/clone/release boundary becomes a
// scheduling point. Exactly one virtual thread executes between points; at
// each point a decider chooses who runs next. The sequence of decisions is
// the SCHEDULE, recorded as a comma-separated token string — replaying the
// same schedule replays the exact interleaving, byte for byte.
//
// Three exploration engines share that core:
//
//   - Random: a seeded pseudo-random walk over schedules. A failure
//     reports its seed and schedule; MACHSIM_SEED=<seed> re-runs exactly
//     that walk, and Replay(schedule) pins the interleaving itself.
//   - Explore: bounded-preemption DFS in the style of CHESS (Musuvathi &
//     Qadeer): voluntary switches (a failed spin) are free, involuntary
//     preemptions are budgeted, and the search enumerates every schedule
//     within the budget. Exhausting the space is a proof over that budget.
//   - Fault options: FaultTries forces try/upgrade operations to fail on
//     demand (each is a two-way decision, recorded as P/F tokens);
//     SpuriousWakeups lets the decider inject sched.ClearWait against any
//     blocked thread (recorded as c<i> tokens), modeling thread-based
//     event occurrences arriving at the worst possible moment.
//
// While threads run, shadow models driven by simhook notes check the
// protocol invariants the paper states: mutual exclusion, writer priority,
// reader-bias revocation safety, refcount-never-resurrects, and
// relock-requires-reference. Deadlocks (every live thread blocked) are
// detected structurally. Any violation aborts the run and reports the
// schedule that produced it.
package machsim

import (
	"fmt"
	"strings"

	"machlock/internal/machsim/simhook"
	"machlock/internal/sched"
)

// Options configures a simulation run (shared by all engines).
type Options struct {
	// MaxSteps bounds one run's decisions; a run that exceeds it is
	// abandoned and counted as Inconclusive (usually a livelock or an
	// exploding spin schedule). 0 means the default of 20000.
	MaxSteps int
	// FaultTries makes every try-style operation (TryLock, TryRead,
	// TryWrite, TryReadToWrite) a fault-injection decision: the decider
	// may force it to fail even when it would succeed.
	FaultTries bool
	// SpuriousWakeups lets the decider inject sched.ClearWait against
	// blocked threads, forcing Restarted results at arbitrary points.
	SpuriousWakeups bool
}

const (
	defaultMaxSteps = 20000
	clockStepNs     = int64(1000) // virtual clock advance per decision
	clockBaseNs     = int64(1 << 40)
	maxThreads      = 62
	eventTailLen    = 200
)

// Scenario builds one run's system under test: construct fresh locks and
// objects, then Spawn the virtual threads that exercise them. It is called
// once per run with the harness already installed, so initial setup
// operations (taking a first reference, pre-locking) are observed by the
// shadow models but are not scheduling points.
type Scenario func(s *Sim)

// vthread states.
const (
	vtRunnable = iota
	vtBlocked
	vtFinished
)

type vthread struct {
	idx    int
	name   string
	thread *sched.Thread
	body   func(t *sched.Thread)
	resume chan struct{}
	state  int
	point  simhook.Point // last yield point, for deadlock reports
	pobj   any           // the yield's object: the pending step's footprint (POR)
}

// initActor attributes setup/at-end protocol events to a pseudo-thread.
var initActor = &vthread{idx: -1, name: "init"}

// simAbort unwinds a virtual thread when the run is over (violation found,
// schedule exhausted, or step budget blown). Recovered by the runner.
type simAbort struct{}

// Sim is one run of one scenario under one decider. It implements
// simhook.Hooks; it is NOT safe for concurrent use — the token-passing
// discipline (exactly one virtual thread between decisions) is what makes
// every access serialized and every run race-clean.
type Sim struct {
	opt      Options
	dec      decider
	scenario Scenario

	vts      []*vthread
	byThread map[*sched.Thread]*vthread
	current  *vthread
	engineCh chan struct{}
	setup    bool // scenario still running: Spawn legal, yields pass through

	steps        int
	clockNs      int64
	tokens       []string
	events       []string
	labels       map[any]string
	violations   []Violation
	aborted      bool
	inconclusive bool
	pruned       bool // run abandoned by the POR layer: covered elsewhere
	inject       bool // harness-internal sched call in progress: no re-entry

	mdl   *models
	atEnd []func(fail func(format string, args ...any))

	// disp routes this Sim's hooks through a shared dispatcher instead of
	// owning the global simhook slot (parallel exploration; dispatch.go).
	disp *dispatcher
}

func newSim(scenario Scenario, dec decider, opt Options) *Sim {
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = defaultMaxSteps
	}
	s := &Sim{
		opt:      opt,
		dec:      dec,
		scenario: scenario,
		byThread: make(map[*sched.Thread]*vthread),
		engineCh: make(chan struct{}, 1),
		labels:   make(map[any]string),
		clockNs:  clockBaseNs,
	}
	s.mdl = newModels(s)
	return s
}

// Spawn registers a virtual thread. Only legal while the scenario function
// is running; bodies start executing after it returns, under the decider's
// control. The returned handle is the thread identity to pass to the lock
// APIs inside body.
func (s *Sim) Spawn(name string, body func(t *sched.Thread)) *sched.Thread {
	if !s.setup {
		panic("machsim: Spawn outside scenario setup")
	}
	if len(s.vts) >= maxThreads {
		panic("machsim: too many virtual threads")
	}
	t := sched.New(name)
	vt := &vthread{
		idx:    len(s.vts),
		name:   name,
		thread: t,
		body:   body,
		resume: make(chan struct{}, 1),
	}
	s.vts = append(s.vts, vt)
	s.byThread[t] = vt
	return t
}

// AtEnd registers a check to run after every thread has finished (on runs
// that complete without a violation). fail records a violation.
func (s *Sim) AtEnd(f func(fail func(format string, args ...any))) {
	if !s.setup {
		panic("machsim: AtEnd outside scenario setup")
	}
	s.atEnd = append(s.atEnd, f)
}

// Label names an object (a lock, a refcount) in event logs and reports.
func (s *Sim) Label(obj any, name string) { s.labels[obj] = name }

// Fail records a scenario-level violation and aborts the run. Callable
// from thread bodies (assertion failed mid-run).
func (s *Sim) Fail(format string, args ...any) {
	s.violate("scenario", fmt.Sprintf(format, args...))
	panic(simAbort{})
}

// Logf appends a line to the run's event log.
func (s *Sim) Logf(format string, args ...any) {
	s.trace(fmt.Sprintf(format, args...))
}

// runOnce executes the scenario once under s.dec. On return the harness is
// uninstalled (or, in dispatcher mode, this goroutine unregistered) and
// every spawned goroutine has exited.
func (s *Sim) runOnce() {
	if s.disp == nil {
		simhook.Install(s)
		defer simhook.Uninstall()
	} else {
		s.disp.register(s)
		defer s.disp.unregister()
	}
	s.setup = true
	s.scenario(s)
	s.setup = false
	if len(s.vts) == 0 {
		return
	}
	for _, vt := range s.vts {
		go s.runner(vt)
	}
	if first := s.pick(nil, false); first == nil {
		// Aborted before anyone ran (replay divergence on the first
		// decision): unwind the parked runners.
		s.drainNext()
	}
	<-s.engineCh
	if !s.aborted {
		s.current = nil
		for _, f := range s.atEnd {
			f(func(format string, args ...any) {
				s.violate("at-end", fmt.Sprintf(format, args...))
			})
		}
	}
}

func (s *Sim) runner(vt *vthread) {
	if s.disp != nil {
		// Bind this goroutine to its Sim before the first resume-receive:
		// every hook the body calls is ordered after the registration.
		s.disp.register(s)
		defer s.disp.unregister()
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simAbort); !ok {
				s.violate("panic", fmt.Sprintf("thread %s panicked: %v", vt.name, r))
			}
		}
		s.finish(vt)
	}()
	<-vt.resume
	if s.aborted {
		panic(simAbort{})
	}
	vt.body(vt.thread)
}

// finish retires a thread and hands the token onward: to the next chosen
// thread, to the abort drain, or to the engine when the run is over.
func (s *Sim) finish(vt *vthread) {
	vt.state = vtFinished
	s.trace(fmt.Sprintf("%s: finished", vt.name))
	if s.aborted {
		s.drainNext()
		return
	}
	if s.allFinished() {
		s.engineCh <- struct{}{}
		return
	}
	if s.pick(nil, false) == nil {
		s.drainNext()
	}
}

func (s *Sim) allFinished() bool {
	for _, vt := range s.vts {
		if vt.state != vtFinished {
			return false
		}
	}
	return true
}

// drainNext resumes one not-yet-finished thread during an abort so it can
// unwind; the chain of finish() calls drains them all, and the last one
// signals the engine. Blocked threads are cleared out of the wait table
// first so the global table is not left with stale entries.
func (s *Sim) drainNext() {
	for _, vt := range s.vts {
		if vt.state == vtFinished {
			continue
		}
		if vt.state == vtBlocked {
			s.inject = true
			sched.ClearWait(vt.thread)
			s.inject = false
			vt.state = vtRunnable
		}
		s.current = vt
		vt.resume <- struct{}{}
		return
	}
	s.engineCh <- struct{}{}
}

// violate records a violation and marks the run aborted. The caller keeps
// running until its next scheduling point (so critical sections unwind
// cleanly); every thread panics simAbort at its next yield or park.
func (s *Sim) violate(checker, msg string) {
	s.violations = append(s.violations, Violation{
		Checker: checker,
		Msg:     msg,
		Step:    s.steps,
	})
	s.trace(fmt.Sprintf("VIOLATION [%s] %s", checker, msg))
	s.aborted = true
}

// countStep charges one decision against the run budget and advances the
// virtual clock. Blows the run (as inconclusive, not failed) on overrun.
func (s *Sim) countStep() {
	s.steps++
	s.clockNs += clockStepNs
	if s.steps > s.opt.MaxSteps {
		s.inconclusive = true
		s.aborted = true
		panic(simAbort{})
	}
}

func (s *Sim) actor() *vthread {
	if s.current == nil {
		return initActor
	}
	return s.current
}

func (s *Sim) nameOf(obj any) string {
	if n, ok := s.labels[obj]; ok {
		return n
	}
	return fmt.Sprintf("%T", obj)
}

func (s *Sim) trace(line string) {
	if len(s.events) >= eventTailLen {
		copy(s.events, s.events[1:])
		s.events = s.events[:eventTailLen-1]
	}
	s.events = append(s.events, fmt.Sprintf("%5d %-12s %s", s.steps, s.actor().name, line))
}

func (s *Sim) scheduleString() string { return strings.Join(s.tokens, ",") }

// ---- simhook.Hooks implementation ----

// Yield is a scheduling point: consult the decider and maybe switch.
func (s *Sim) Yield(p simhook.Point, obj any) {
	vt := s.current
	if vt == nil || s.inject {
		return // setup/at-end code or harness-internal sched call
	}
	if s.aborted {
		panic(simAbort{})
	}
	vt.point = p
	vt.pobj = obj
	s.trace(fmt.Sprintf("yield %-18s %s", p, s.nameOf(obj)))
	s.countStep()
	voluntary := p == simhook.SpSpin || p == simhook.CxSpin
	chosen := s.pick(vt, voluntary)
	if chosen == nil {
		panic(simAbort{})
	}
	if chosen != vt {
		<-vt.resume
		if s.aborted {
			panic(simAbort{})
		}
	}
}

// Note feeds the shadow models; it never suspends the caller (it may run
// inside an interlock critical section).
func (s *Sim) Note(p simhook.Point, obj any, n int64) {
	s.trace(fmt.Sprintf("note  %-18s %s n=%d", p, s.nameOf(obj), n))
	s.mdl.note(s.actor(), p, obj, n)
}

// ForceFail decides whether a try-style operation fails artificially.
func (s *Sim) ForceFail(p simhook.Point, obj any) bool {
	if s.current == nil || s.inject || !s.opt.FaultTries {
		return false
	}
	if s.aborted {
		panic(simAbort{})
	}
	s.countStep()
	cands := []candidate{
		{tok: "P", vt: s.current, fault: true},
		{tok: "F", vt: s.current, fault: true, cost: 1},
	}
	idx := s.dec.choose(s, cands)
	if idx < 0 || s.aborted {
		if idx == pruneRun {
			s.pruned = true
		}
		s.aborted = true
		panic(simAbort{})
	}
	fail := idx == 1
	s.tokens = append(s.tokens, cands[idx].tok)
	if fail {
		s.trace(fmt.Sprintf("force-fail %s %s", p, s.nameOf(obj)))
	}
	return fail
}

// Block parks the current virtual thread (called from sched.ThreadBlock).
func (s *Sim) Block(t any) bool {
	th, ok := t.(*sched.Thread)
	if !ok {
		return false
	}
	vt := s.byThread[th]
	if vt == nil || vt != s.current {
		return false
	}
	if s.aborted {
		panic(simAbort{})
	}
	vt.state = vtBlocked
	vt.point = simhook.SchedBlocked
	vt.pobj = nil
	s.trace("blocked")
	s.countStep()
	if s.pick(nil, false) == nil {
		// Deadlock (or replay divergence): this thread unwinds; its
		// finish() drives the drain of the others.
		panic(simAbort{})
	}
	<-vt.resume
	if s.aborted {
		panic(simAbort{})
	}
	return true
}

// Unblock marks a parked thread runnable without switching to it (called
// from sched's resume path, on the waker's goroutine).
func (s *Sim) Unblock(t any) bool {
	th, ok := t.(*sched.Thread)
	if !ok {
		return false
	}
	vt := s.byThread[th]
	if vt == nil {
		return false
	}
	if vt.state == vtBlocked {
		vt.state = vtRunnable
		s.trace(fmt.Sprintf("%s: unblocked", vt.name))
	}
	return true
}

// NowNs is the deterministic virtual clock.
func (s *Sim) NowNs() int64 { return s.clockNs }

// Index gives registered threads a stable small integer identity, so
// address-hashed structures (the reader-bias slot table) are deterministic
// under the harness.
func (s *Sim) Index(t any) (int, bool) {
	th, ok := t.(*sched.Thread)
	if !ok {
		return 0, false
	}
	vt := s.byThread[th]
	if vt == nil {
		return 0, false
	}
	return vt.idx, true
}

// ---- the scheduling decision ----

type candidate struct {
	tok    string
	vt     *vthread
	inject bool // spurious-wakeup injection, not a thread step
	fault  bool // fault-injection decision (P/F), not a scheduling decision
	cost   int
}

// pruneRun is the decider return value that abandons the run as redundant
// (the POR layer proved every remaining candidate is covered by a sibling
// exploration). Distinct from plain -1, which is an abort after a recorded
// violation.
const pruneRun = -2

// pick makes one scheduling decision. from is the yielding thread (still
// runnable; nil when the previous thread blocked, finished, or the engine
// is dispatching the first thread). voluntary marks a spin-style yield:
// switching away is free and the default, per CHESS. pick applies the
// choice — injection side effects, current switch, resume send — and
// returns the chosen thread, or nil when the run aborted (no candidates =
// deadlock, or the decider diverged).
func (s *Sim) pick(from *vthread, voluntary bool) *vthread {
	var cands []candidate
	add := func(vt *vthread, cost int) {
		cands = append(cands, candidate{tok: fmt.Sprint(vt.idx), vt: vt, cost: cost})
	}
	switch {
	case from != nil && !voluntary:
		// Involuntary point: continuing is the default; preempting to
		// any other runnable thread spends budget.
		add(from, 0)
		for _, vt := range s.vts {
			if vt != from && vt.state == vtRunnable {
				add(vt, 1)
			}
		}
	case from != nil && voluntary:
		// Spinning: switching is free. Round-robin order from the
		// spinner gives the deterministic default; spinning again is
		// only offered when nobody else can run.
		n := len(s.vts)
		for i := 1; i <= n; i++ {
			vt := s.vts[(from.idx+i)%n]
			if vt != from && vt.state == vtRunnable {
				add(vt, 0)
			}
		}
		if len(cands) == 0 {
			add(from, 0)
		}
	default:
		// Forced switch (block/finish/first dispatch): free.
		for _, vt := range s.vts {
			if vt.state == vtRunnable {
				add(vt, 0)
			}
		}
	}
	if s.opt.SpuriousWakeups {
		for _, vt := range s.vts {
			if vt.state == vtBlocked {
				cands = append(cands, candidate{
					tok: "c" + fmt.Sprint(vt.idx), vt: vt, inject: true, cost: 1,
				})
			}
		}
	}
	if len(cands) == 0 {
		s.violate("deadlock", s.deadlockMsg())
		return nil
	}
	idx := s.dec.choose(s, cands)
	if idx < 0 {
		if idx == pruneRun {
			s.pruned = true
		}
		s.aborted = true
		return nil
	}
	c := cands[idx]
	s.tokens = append(s.tokens, c.tok)
	if c.inject {
		// Spurious wakeup: a thread-based event occurrence (ClearWait)
		// delivered by the fault engine; the restarted thread runs next.
		s.trace(fmt.Sprintf("inject clear_wait -> %s", c.vt.name))
		s.inject = true
		sched.ClearWait(c.vt.thread)
		s.inject = false
		if c.vt.state != vtRunnable {
			c.vt.state = vtRunnable // belt and braces: ClearWait raced nothing
		}
	}
	if c.vt != from {
		s.current = c.vt
		c.vt.resume <- struct{}{}
	}
	return c.vt
}

func (s *Sim) deadlockMsg() string {
	var b strings.Builder
	b.WriteString("deadlock: every live thread is blocked:")
	for _, vt := range s.vts {
		if vt.state == vtBlocked {
			fmt.Fprintf(&b, " %s(at %s)", vt.name, vt.point)
		}
	}
	return b.String()
}
