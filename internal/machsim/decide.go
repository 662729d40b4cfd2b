package machsim

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// decider chooses among candidates at each decision point. cands[0] is the
// deterministic default (continue current / pass the try / the round-robin
// successor); each candidate's cost is its preemption price for the
// bounded-DFS engine. A decider returns the chosen index, a negative value
// after recording a violation on s (replay divergence) which aborts the
// run, or pruneRun to abandon the run as redundant (POR).
type decider interface {
	choose(s *Sim, cands []candidate) int
}

// ---- splitmix64: a tiny, Go-version-independent PRNG so seeds replay
// identically everywhere (math/rand's stream is not a compatibility
// promise). ----

type prng struct{ x uint64 }

func (p *prng) next() uint64 {
	p.x += 0x9E3779B97F4A7C15
	z := p.x
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

func (p *prng) n(n int) int { return int(p.next() % uint64(n)) }

// randomDecider is the seeded pseudo-random walk.
type randomDecider struct{ rng prng }

func (d *randomDecider) choose(s *Sim, cands []candidate) int {
	return d.rng.n(len(cands))
}

// replayDecider replays a recorded schedule token by token. Any mismatch
// between the recorded token and the current candidates means the system
// under test diverged (a nondeterminism bug in the harness seam or the
// scenario) and is reported as a violation.
type replayDecider struct {
	toks []string
	pos  int
}

func (d *replayDecider) choose(s *Sim, cands []candidate) int {
	if d.pos >= len(d.toks) {
		toks := make([]string, len(cands))
		for i, c := range cands {
			toks[i] = c.tok
		}
		s.violate("replay", fmt.Sprintf(
			"schedule exhausted after %d tokens but the run wants another decision among %v",
			len(d.toks), toks))
		return -1
	}
	want := d.toks[d.pos]
	d.pos++
	for i, c := range cands {
		if c.tok == want {
			return i
		}
	}
	toks := make([]string, len(cands))
	for i, c := range cands {
		toks[i] = c.tok
	}
	s.violate("replay", fmt.Sprintf(
		"divergence at token %d: schedule says %q, candidates are %v",
		d.pos-1, want, toks))
	return -1
}

// dfsBranch is one unexplored alternative: replay prefix, take it, then
// run defaults to completion. sleep is the sleep set of the state the
// prefix reaches (thread indices whose pending step is already covered by
// a sibling exploration); empty without reduction.
type dfsBranch struct {
	prefix   []string
	preempts int
	sleep    []int
}

// dfsDecider drives the bounded-preemption depth-first search. Each run
// replays a forced prefix, and at the frontier takes defaults while
// pushing every affordable alternative onto the stack for later runs.
// With ReduceSleep it additionally maintains sleep sets over the
// candidates' pending operations; see por.go for the independence
// relation and the soundness argument.
type dfsDecider struct {
	budget int
	reduce Reduction
	stack  []dfsBranch

	forced    []string
	initSleep []int
	preempts  int
	depth     int
	taken     []string
	sleep     map[int]bool // nil until the first frontier decision
}

func (d *dfsDecider) beginRun(br dfsBranch) {
	d.forced = br.prefix
	d.initSleep = br.sleep
	d.preempts = br.preempts
	d.depth = 0
	d.taken = append(d.taken[:0], br.prefix...)
	d.sleep = nil
}

// push schedules one alternative for a later run.
func (d *dfsDecider) push(tok string, preempts int, sleep []int) {
	prefix := make([]string, len(d.taken)+1)
	copy(prefix, d.taken)
	prefix[len(d.taken)] = tok
	d.stack = append(d.stack, dfsBranch{prefix: prefix, preempts: preempts, sleep: sleep})
}

// sleepSlice materializes the running sleep set in sorted order.
func (d *dfsDecider) sleepSlice() []int {
	if len(d.sleep) == 0 {
		return nil
	}
	out := make([]int, 0, len(d.sleep))
	for u := range d.sleep {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

func (d *dfsDecider) choose(s *Sim, cands []candidate) int {
	if d.depth < len(d.forced) {
		want := d.forced[d.depth]
		d.depth++
		for i, c := range cands {
			if c.tok == want {
				return i
			}
		}
		toks := make([]string, len(cands))
		for i, c := range cands {
			toks[i] = c.tok
		}
		s.violate("dfs", fmt.Sprintf(
			"nondeterministic replay at decision %d: prefix says %q, candidates are %v",
			d.depth-1, want, toks))
		return -1
	}
	if d.sleep == nil {
		d.sleep = make(map[int]bool, len(d.initSleep))
		for _, u := range d.initSleep {
			d.sleep[u] = true
		}
	}
	// Fault decisions (P/F) double the subtree without executing a new
	// thread step: both halves inherit the running sleep set unchanged.
	// Unreduced scheduling decisions take the same shape with an empty
	// sleep set.
	if d.reduce == ReduceNone || cands[0].fault {
		for i := 1; i < len(cands); i++ {
			if d.preempts+cands[i].cost <= d.budget {
				d.push(cands[i].tok, d.preempts+cands[i].cost, d.sleepSlice())
			}
		}
		d.depth++
		d.taken = append(d.taken, cands[0].tok)
		return 0
	}
	return d.chooseReduced(s, cands)
}

// chooseReduced is one scheduling decision under partial-order reduction.
func (d *dfsDecider) chooseReduced(s *Sim, cands []candidate) int {
	// Continuation: the first candidate not in the sleep set. Injection
	// candidates are wakeup deliveries, not thread steps — the sleep set
	// does not apply to them.
	cont := -1
	for i, c := range cands {
		if c.inject || !d.sleep[c.vt.idx] {
			cont = i
			break
		}
	}
	if cont < 0 {
		// Every enabled step is asleep: each is explored from an
		// equivalent state by a sibling, so this state's subtree is
		// redundant. Not a deadlock — abandon the run without a verdict.
		return pruneRun
	}
	var contOp opRef
	if !cands[cont].inject {
		contOp = pendingOf(cands[cont].vt)
	}
	// Push alternatives in candidate order. Following Godefroid's DFS
	// formulation, the sleep set handed to alternative t is the current
	// set plus the siblings explored before t, filtered to the entries
	// independent with t's own step. Which sibling is "before" which only
	// matters up to full exhaustion — every slept sibling is genuinely
	// explored from this state in some run — so the LIFO pop order of the
	// stack does not disturb soundness.
	cur := d.sleepSlice()
	explored := []int{}
	if !cands[cont].inject {
		explored = append(explored, cands[cont].vt.idx)
	}
	for i, c := range cands {
		if i == cont {
			continue
		}
		if !c.inject && d.sleep[c.vt.idx] {
			continue // covered by a sibling exploration: skip entirely
		}
		if d.preempts+c.cost > d.budget {
			continue
		}
		var altSleep []int
		if !c.inject {
			altSleep = filterSleep(s, append(append([]int{}, cur...), explored...), pendingOf(c.vt))
		}
		// Injection branches restart a blocked thread through the wait
		// table: dependent with everything, so they start with an empty
		// sleep set and are never added to a sibling's.
		d.push(c.tok, d.preempts+c.cost, altSleep)
		if !c.inject {
			explored = append(explored, c.vt.idx)
		}
	}
	// Take the continuation and advance the running sleep set: entries
	// whose step is dependent with the executed step wake up (the
	// commuting argument no longer applies past it).
	if cands[cont].inject {
		d.sleep = map[int]bool{}
	} else {
		for u := range d.sleep {
			if !independentOps(pendingOf(s.vts[u]), contOp) {
				delete(d.sleep, u)
			}
		}
	}
	d.depth++
	d.taken = append(d.taken, cands[cont].tok)
	return cont
}

// ---- engines ----

// Replay runs the scenario once under a recorded schedule and returns the
// outcome. The schedule must have been produced by the same scenario and
// Options (fault decisions are part of the token stream).
func Replay(scenario Scenario, schedule string, opt Options) Result {
	s := newSim(scenario, &replayDecider{toks: strings.Split(schedule, ",")}, opt)
	s.runOnce()
	r := resultOf(s, 1)
	r.Schedule = s.scheduleString()
	return r
}

// Random explores `runs` seeded pseudo-random schedules, stopping at the
// first violation. Run i uses seed+i, so a failure's Seed pinpoints its
// exact walk; setting MACHSIM_SEED=<seed> overrides the base seed and runs
// that single walk, reproducing the failure byte for byte.
func Random(scenario Scenario, runs int, seed int64, opt Options) Result {
	if env := os.Getenv("MACHSIM_SEED"); env != "" {
		if v, err := strconv.ParseInt(env, 10, 64); err == nil {
			seed, runs = v, 1
		}
	}
	var acc Result
	for i := 0; i < runs; i++ {
		runSeed := seed + int64(i)
		s := newSim(scenario, &randomDecider{rng: prng{x: uint64(runSeed)}}, opt)
		s.runOnce()
		acc.Runs++
		acc.Steps += int64(s.steps)
		if s.inconclusive {
			acc.Inconclusive++
		}
		if len(s.violations) > 0 {
			acc.Seed = runSeed
			acc.Schedule = s.scheduleString()
			acc.Violations = s.violations
			acc.Log = append([]string(nil), s.events...)
			return acc
		}
	}
	acc.Seed = seed
	return acc
}

// DFSConfig bounds the Explore engine.
type DFSConfig struct {
	// Preemptions is the involuntary-context-switch budget per schedule
	// (CHESS's preemption bound). Fault injections and spurious wakeups
	// spend from the same budget.
	Preemptions int
	// MaxRuns caps the number of schedules explored; 0 means 10000.
	MaxRuns int
	// Reduction selects the partial-order-reduction mode (por.go);
	// the zero value explores unreduced.
	Reduction Reduction
}

// Explore enumerates schedules depth-first within a preemption budget,
// stopping at the first violation. If it returns with Exhausted set, every
// schedule within the budget was run — a proof of the checked properties
// over that preemption bound (up to trace equivalence when a Reduction is
// set; see por.go).
func Explore(scenario Scenario, cfg DFSConfig, opt Options) Result {
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 10000
	}
	d := &dfsDecider{budget: cfg.Preemptions, reduce: cfg.Reduction}
	br := dfsBranch{}
	var acc Result
	for {
		d.beginRun(br)
		s := newSim(scenario, d, opt)
		s.runOnce()
		acc.Runs++
		acc.Steps += int64(s.steps)
		if s.inconclusive {
			acc.Inconclusive++
		}
		if s.pruned {
			acc.Pruned++
		}
		if len(s.violations) > 0 {
			acc.Schedule = s.scheduleString()
			acc.Violations = s.violations
			acc.Log = append([]string(nil), s.events...)
			return acc
		}
		if len(d.stack) == 0 {
			acc.Exhausted = acc.Inconclusive == 0
			return acc
		}
		if acc.Runs >= cfg.MaxRuns {
			return acc
		}
		br = d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
	}
}
