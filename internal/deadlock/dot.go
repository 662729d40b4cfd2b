package deadlock

import (
	"fmt"
	"sort"
	"strings"

	"machlock/internal/core/cxlock"
)

// WaitGraphDOT renders the current wait-for graph in Graphviz DOT form:
// thread nodes (ellipses), lock nodes (boxes), a "waits" edge from each
// waiting thread to its awaited lock and a "holds" edge from each lock to
// every holder. The output is deterministic (sorted by name) so two dumps
// of the same state diff cleanly; it is the /debug/machlock/waitgraph
// payload and the graph attached to monitor incident reports.
func (tr *Tracker) WaitGraphDOT() string {
	tr.mu.Lock()
	type hold struct {
		lock, thread string
		n            int
	}
	type wait struct {
		thread, lock string
	}
	var holds []hold
	var waits []wait
	threads := map[string]bool{}
	locks := map[string]bool{}
	for k, n := range tr.holds {
		ln := tr.lockName(k.lock)
		locks[ln] = true
		threads[k.thread.Name()] = true
		holds = append(holds, hold{lock: ln, thread: k.thread.Name(), n: n})
	}
	for t, l := range tr.waits {
		ln := tr.lockName(l)
		locks[ln] = true
		threads[t.Name()] = true
		waits = append(waits, wait{thread: t.Name(), lock: ln})
	}
	tr.mu.Unlock()

	sort.Slice(holds, func(i, j int) bool {
		if holds[i].lock != holds[j].lock {
			return holds[i].lock < holds[j].lock
		}
		return holds[i].thread < holds[j].thread
	})
	sort.Slice(waits, func(i, j int) bool {
		if waits[i].thread != waits[j].thread {
			return waits[i].thread < waits[j].thread
		}
		return waits[i].lock < waits[j].lock
	})

	var sb strings.Builder
	sb.WriteString("digraph waitfor {\n")
	sb.WriteString("  rankdir=LR;\n")
	for _, n := range sortedKeys(threads) {
		fmt.Fprintf(&sb, "  %q [shape=ellipse];\n", "thread:"+n)
	}
	for _, n := range sortedKeys(locks) {
		fmt.Fprintf(&sb, "  %q [shape=box];\n", "lock:"+n)
	}
	for _, w := range waits {
		fmt.Fprintf(&sb, "  %q -> %q [label=\"waits\"];\n", "thread:"+w.thread, "lock:"+w.lock)
	}
	for _, h := range holds {
		label := "holds"
		if h.n > 1 {
			label = fmt.Sprintf("holds x%d", h.n)
		}
		fmt.Fprintf(&sb, "  %q -> %q [label=%q];\n", "lock:"+h.lock, "thread:"+h.thread, label)
	}
	sb.WriteString("}\n")
	return sb.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Install registers the tracker as one observer among possibly many
// (cxlock.AddObserver); Uninstall removes it. The tracker never owns the
// observer slot — debugging tools, the trace layer, and the continuous
// monitor are expected to observe simultaneously.
func (tr *Tracker) Install() { cxlock.AddObserver(tr) }

// Uninstall removes the tracker from the observer list.
func (tr *Tracker) Uninstall() { cxlock.RemoveObserver(tr) }

// compile-time check: the tracker satisfies the observer contract.
var _ cxlock.Observer = (*Tracker)(nil)
