package machsim

import (
	"fmt"
	"sort"

	"machlock/internal/machsim/simhook"
)

// This file is the partial-order-reduction layer of the Explore engine:
// sleep sets (Godefroid) computed over the simhook event vocabulary, so
// the same Exhausted guarantee covers subsystem-sized scenarios whose
// unreduced schedule space is out of reach.
//
// THE INDEPENDENCE RELATION. A "step" is everything a virtual thread
// executes between two scheduling points. Its memory footprint is
// approximated by the pending operation at the step's opening yield — the
// (point, object) pair the thread is about to perform — which works
// because the substrate's instrumentation brackets every shared-state
// transition with yields on the owning object:
//
//   - splock steps (SpLock/SpSpin/SpTry/SpUnlock) touch the lock word
//     and — in the step that runs the caller's critical section — data
//     protected by that lock. Two steps on different lock objects
//     commute.
//   - cxlock entry yields (CxRead/CxWrite/...) open empty steps: the very
//     next action is the interlock acquisition, which is an instrumented
//     splock with its own yields, so every access to the cx state machine
//     lands in a step footprinted on the interlock object. Same-object
//     steps are ordered; different locks have different interlocks.
//   - refcount steps (RefClone/RefRelease) touch one counter. Release-to-
//     zero ordering against a concurrent clone on the SAME counter is the
//     resurrection race, so same-object ref steps are always dependent;
//     different counters commute.
//   - sched steps (SchedAssertWait/SchedWakeup/SchedClearWait) touch the
//     wait table and thread states, never a lock word: the interlock
//     release after an assert gets its own SpUnlock yield, and lock paths
//     that wake waiters do it through sched entry points that yield first.
//     sched steps are mutually dependent (shared table, thread states) but
//     commute with lock and ref steps.
//   - anything else — a thread that has not run yet, one returning from a
//     block, a point the classifier does not know — is UNKNOWN and treated
//     as dependent with everything.
//
// Scenario data accesses ride along soundly under the data-race-freedom
// assumption the harness already makes: an access protected by lock l
// happens between l's acquisition yield and release yield, i.e. inside a
// step footprinted on l, so two conflicting accesses live in same-object
// (dependent) steps. A scenario that races on plain shared memory with no
// instrumented operation in between is invisible to the reduction exactly
// as it is invisible to the shadow models; the CrossCheck engine exists to
// validate the assumption empirically per suite.
//
// INTERACTION WITH THE PREEMPTION BOUND. Sleep sets prune an alternative
// only when a representative of its Mazurkiewicz trace is explored from an
// equivalent state. The representative can have a different preemption
// cost than the pruned member, so "Exhausted with reduction" proves
// coverage of the trace classes the bounded reduced search reaches — in
// practice the same verdicts, which is what CrossCheck asserts — rather
// than being schedule-for-schedule identical to the unreduced bound.

// Reduction selects the partial-order-reduction mode of the Explore
// engine.
type Reduction int

const (
	// ReduceNone explores every schedule within the preemption budget
	// (PR 5 behaviour).
	ReduceNone Reduction = iota
	// ReduceSleep maintains sleep sets: an alternative already explored
	// from an equivalent state (reachable by commuting independent steps)
	// is skipped. Sound under the independence relation above; prunes
	// nothing a violation could hide in.
	ReduceSleep
)

var reductionNames = map[Reduction]string{
	ReduceNone: "none", ReduceSleep: "sleep",
}

// String implements fmt.Stringer ("none", "sleep").
func (r Reduction) String() string {
	if s, ok := reductionNames[r]; ok {
		return s
	}
	return fmt.Sprintf("reduction(%d)", int(r))
}

// ParseReduction is the inverse of String (frontier files, CLI flags).
func ParseReduction(s string) (Reduction, error) {
	for r, name := range reductionNames {
		if s == name {
			return r, nil
		}
	}
	return ReduceNone, fmt.Errorf("machsim: unknown reduction %q", s)
}

// opCat classifies a pending operation's footprint.
type opCat uint8

const (
	opUnknown   opCat = iota // dependent with everything
	opLockStep               // splock/cxlock step on opRef.obj
	opRefStep                // refcount step on opRef.obj
	opSchedStep              // wait-table / thread-state step
)

// opRef is the approximate footprint of one pending step.
type opRef struct {
	cat opCat
	obj any
}

// pendingOf classifies the step a virtual thread will execute when next
// scheduled, from the yield point it is suspended at.
func pendingOf(vt *vthread) opRef {
	switch vt.point {
	case simhook.SpLock, simhook.SpSpin, simhook.SpUnlock, simhook.SpTry,
		simhook.CxRead, simhook.CxWrite, simhook.CxDone, simhook.CxTryRead,
		simhook.CxTryWrite, simhook.CxUpgrade, simhook.CxTryUpgrade,
		simhook.CxDowngrade, simhook.CxSpin, simhook.CxAcquired,
		simhook.CxBiasPublish:
		return opRef{cat: opLockStep, obj: vt.pobj}
	case simhook.RefClone, simhook.RefRelease:
		return opRef{cat: opRefStep, obj: vt.pobj}
	case simhook.SchedAssertWait, simhook.SchedWakeup, simhook.SchedClearWait:
		return opRef{cat: opSchedStep, obj: vt.pobj}
	default:
		// PointInvalid (never ran), SchedBlocked (returning from a block),
		// or a future point this classifier does not know.
		return opRef{cat: opUnknown}
	}
}

// independentOps reports whether two pending steps commute: executing them
// in either order from the same state reaches the same state, and neither
// disables the other. See the relation documented at the top of the file.
func independentOps(a, b opRef) bool {
	if a.cat == opUnknown || b.cat == opUnknown {
		return false
	}
	if a.cat == opSchedStep && b.cat == opSchedStep {
		return false
	}
	if a.cat == opSchedStep || b.cat == opSchedStep {
		return true
	}
	// lock/ref steps: footprint is the object; distinct objects commute
	// (distinct locks have distinct words and waiter structures, distinct
	// counters have distinct cells, and lock-vs-ref steps only collide
	// through an object they share).
	return a.obj != b.obj
}

// filterSleep keeps the threads of idxs whose pending step is independent
// with op, sorted (sleep sets are order-free; sorting keeps schedules and
// frontier files byte-stable).
func filterSleep(s *Sim, idxs []int, op opRef) []int {
	var out []int
	seen := map[int]bool{}
	for _, u := range idxs {
		if seen[u] {
			continue
		}
		seen[u] = true
		if independentOps(pendingOf(s.vts[u]), op) {
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// CrossCheck runs the same bounded exploration twice — unreduced and with
// sleep sets — and compares outcomes. It returns the unreduced result
// plus a list of disagreements: a reduced search that reports a different
// set of violated checkers, loses an Exhausted verdict the unreduced
// search established, or somehow runs MORE schedules than the search it
// is meant to prune. An empty list is the empirical soundness check the
// POR layer ships with.
func CrossCheck(scenario Scenario, cfg DFSConfig, opt Options) (Result, []string) {
	base := cfg
	base.Reduction = ReduceNone
	r0 := Explore(scenario, base, opt)
	c := cfg
	c.Reduction = ReduceSleep
	r := Explore(scenario, c, opt)
	var mismatches []string
	if sig0, sig := checkerSignature(r0), checkerSignature(r); sig != sig0 {
		mismatches = append(mismatches, fmt.Sprintf(
			"violation sets differ: unreduced=%q sleep=%q (sleep schedule: %s)",
			sig0, sig, r.Schedule))
	}
	if r0.Exhausted && !r.Exhausted {
		mismatches = append(mismatches, fmt.Sprintf(
			"unreduced search exhausted the space but the sleep-set search did not (%s)",
			r.Summary()))
	}
	if r.Runs > r0.Runs {
		mismatches = append(mismatches, fmt.Sprintf(
			"sleep sets ran more schedules than the unreduced search (%d > %d)",
			r.Runs, r0.Runs))
	}
	return r0, mismatches
}

// checkerSignature is the sorted, deduplicated set of violated checker
// names — the "violation set" the cross-check compares. Schedules and
// messages legitimately differ between reduced and unreduced searches;
// which properties failed must not.
func checkerSignature(r Result) string {
	seen := map[string]bool{}
	var names []string
	for _, v := range r.Violations {
		if !seen[v.Checker] {
			seen[v.Checker] = true
			names = append(names, v.Checker)
		}
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}
