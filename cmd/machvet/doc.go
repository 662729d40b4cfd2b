// Command machvet statically enforces the locking and reference-counting
// discipline this repository implements from "Locking and Reference
// Counting in the Mach Kernel". It is a multichecker in the style of go
// vet: it loads every package named by its patterns (default ./..., from
// the module root), runs six passes over each, and exits non-zero if
// any diagnostic survives.
//
// The passes, and the paper rule each one encodes:
//
//	holdblock      Simple (spin) locks are never held across an operation
//	               that can block: complex-lock acquisition, reference
//	               release (the last reference runs a destructor),
//	               scheduler waits, channel operations, and calls that
//	               transitively block. Call-graph may-block summaries flow
//	               between packages as facts, including "release-before-
//	               block" sets so protocols that drop a caller-visible
//	               lock before parking (cxlock's wait(), the
//	               sched.ThreadSleep unlock-closure idiom) don't flag.
//
//	lockorder      Locks are acquired in a single global order. Declared
//	               splock.Hierarchy ranks are checked exactly like the
//	               runtime checker, and every nested acquisition records a
//	               directed edge between lock classes; an inversion of an
//	               edge seen anywhere else reports both sites. TryLock and
//	               splock.LockPair are exempt: they are the paper's
//	               sanctioned escapes (backout protocol, address-ordered
//	               same-class pairs).
//
//	unlockpath     Every acquisition reaches a release on every return
//	               path, unless annotated //machlock:holds (wrappers and
//	               lock-handoff protocols). Also reports malformed
//	               machlock:/machvet: annotations, which would otherwise
//	               fail open.
//
//	refdiscipline  Deactivatable objects (types embedding object.Object)
//	               need a reference to be (re)locked, and values loaded
//	               from them before an unlock/relock window are stale
//	               after it.
//
//	atomicity      The unlock/relock generalization for ordinary locked
//	               state: a value loaded under a hold is stale after that
//	               lock is dropped and retaken, and a boolean gate field
//	               tested under the first hold (pset's draining flag) does
//	               not authorize mutating the structure under the second —
//	               re-read it first. The paper's customized-lock protocol
//	               is sanctioned: setting an in-progress flag under the
//	               first hold claims the window.
//
//	sleepwake      The assert_wait/thread_block window discipline: the
//	               wait must be asserted BEFORE the condition's lock is
//	               released (or a wakeup in the gap is lost forever), no
//	               lock held at the assert may survive to the block, and a
//	               second assert without an intervening block or
//	               clear_wait is the runtime's "already waiting" panic.
//	               sched.ThreadSleep's unlock closure is the sanctioned
//	               atomic form.
//
// # Lock-graph mode (-graph)
//
//	machvet -graph static.json ./...
//
// Instead of reporting diagnostics, -graph walks every function with the
// same lockstate engine and emits the whole-program lock-order graph in
// the machlock-lockgraph/v1 schema (internal/lockgraph): nodes are
// canonical lock classes, edges are held→acquired nestings with the code
// sites that prove them, may-block flags, and try/upgrade markers.
// Interprocedural nestings (a call made with locks held whose callee
// acquires more) are resolved through the call graph.
//
// # Cross-checking mode (-diff)
//
//	machvet -diff [-mincover pct] static.json dynamic.json [dynamic2.json ...]
//
// -diff compares the static graph against one or more dynamic graphs
// recorded at runtime (the trace collector behind machd -lockgraph and
// MACHLOCK_LOCKGRAPH=prefix go test). Multiple dynamic graphs are merged
// first. Every dynamic-only edge — a nesting that actually happened but
// the analysis never proved — is a soundness hole and fails the run.
// Static-only edges are coverage gaps (reported with their proving
// sites); -mincover fails the run when matched coverage drops below the
// given percentage. Try-only static edges are exempt from coverage (the
// backout protocol nests opportunistically), and static edges between
// classes the runtime never observed are excluded rather than counted
// against coverage. `make lockcover` regenerates both sides and runs the
// diff against the committed baseline (lockgraph-baseline.txt); CI runs
// the same pieces and uploads all three JSON artifacts.
//
// # Suppressions
//
// A finding that documents intentional protocol is suppressed in place:
//
//	//machvet:allow lockorder — reverse pv→pmap order is arbitrated by the class lock (Section 5)
//	e.pm.lock.Lock()
//
// The annotation names one or more passes and covers its own line (as a
// trailing comment) or the line below (as a whole-line comment). A lock
// acquisition whose hold intentionally escapes the function is annotated
// //machlock:holds, which unlockpath honors. Unknown pass names or verbs
// are themselves reported — a typo'd suppression never fails open.
//
// # Caching
//
// machvet has no fact files on disk: analyzer facts (may-block summaries,
// lock-order edges) live in memory for one run, recomputed each time.
// What *is* cached is everything expensive underneath: packages are
// listed with `go list -export`, so dependency type information comes
// from the go build cache's export data, and only the packages under
// analysis are type-checked from source. A warm run over this repository
// takes well under a second; there is no cache to invalidate or clean.
package main
