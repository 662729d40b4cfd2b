package lockgraph

import "strings"

// The two emitters name classes in different vocabularies:
//
//   - machvet's lockstate.ClassKeyOf derives TYPE-LEVEL keys from the
//     receiver expression: "vm.Map.lock" (field of a named container),
//     "ipc.Port" (an object.Object embedder classed by its own type),
//     "local:x@1234" (a function-local lock, position-unique);
//   - the trace registry names classes at registration time: "vm.map",
//     "ipc.port", "zone.kern.task" (one class per zalloc zone).
//
// The canonical vocabulary is the trace registry's (one name per
// registered class, with the per-zone "zone.*" family collapsed to
// "zalloc.zone"), because that is the only name the dynamic side can ever
// report. staticClasses maps every machvet key for a runtime-traced lock
// onto it. Static keys NOT in the table are still real classes machvet
// proves edges about — pmap, tlbsim, cthreads, vm.Page and the unclassed
// object.Object embedders carry no trace class — so they stay in the
// static graph under their own key with Observable=false and are excluded
// from coverage accounting rather than silently dropped.

// staticClasses: machvet ClassKey -> canonical (trace) class name.
var staticClasses = map[string]string{
	"vm.Map.lock":               "vm.map",
	"vm.Object.lock":            "vm.object",
	"ipc.Port":                  "ipc.port",
	"ipc.Space.lock":            "ipc.space",
	"kern.Task":                 "kern.task",
	"kern.Thread":               "kern.thread",
	"kern.Processor":            "kern.processor",
	"kern.ProcessorSet":         "kern.pset",
	"kern.ProcessorSet.members": "kern.pset.members",
	"kern.Host.assignLock":      "kern.host.assign",
	"machd.slot.chaosLock":      "machd.chaos",
	"zalloc.Zone.lock":          "zalloc.zone",
}

// canonicalKinds: canonical class name -> mechanism kind, mirroring the
// trace.NewClass registrations.
var canonicalKinds = map[string]string{
	"vm.map":            "complex",
	"vm.object":         "spin",
	"ipc.port":          "object",
	"ipc.space":         "complex",
	"kern.task":         "object",
	"kern.thread":       "object",
	"kern.processor":    "object",
	"kern.pset":         "object",
	"kern.pset.members": "complex",
	"kern.host.assign":  "complex",
	"machd.chaos":       "complex",
	"zalloc.zone":       "spin",
}

// dynamicOnlyNames are trace-registry names the collector may observe that
// are infrastructure, not kernel lock classes: they are dropped from
// dynamic graphs without being reported as unmapped.
var dynamicOnlyNames = map[string]bool{
	// The lock-order violation pseudo-class: registered, never acquired.
	"splock.hierarchy": true,
}

// CanonicalStatic translates a machvet ClassKey into (canonical name,
// observable). Three outcomes:
//
//   - a runtime-traced class: (trace name, true);
//   - a function-local class ("local:" prefix): ("", false) — dropped,
//     locals are position-unique by construction and carry no
//     cross-function ordering information;
//   - any other key: (the key itself, false) — a statically known class
//     with no trace registration, kept but outside coverage.
func CanonicalStatic(classKey string) (name string, observable bool) {
	if strings.HasPrefix(classKey, "local:") || strings.Contains(classKey, ".local:") {
		return "", false
	}
	if canon, ok := staticClasses[classKey]; ok {
		return canon, true
	}
	return classKey, false
}

// CanonicalDynamic translates a trace-registry class name into its
// canonical form. Returns "" for names to ignore silently (infrastructure
// pseudo-classes) and ok=false for names with no mapping (test-harness
// classes; callers record them in UnmappedClasses).
func CanonicalDynamic(traceName string) (name string, ok bool) {
	if dynamicOnlyNames[traceName] {
		return "", true
	}
	if strings.HasPrefix(traceName, "zone.") {
		return "zalloc.zone", true
	}
	if _, known := canonicalKinds[traceName]; known {
		return traceName, true
	}
	return "", false
}

// KindOf returns the mechanism kind of a canonical class, or "unknown".
func KindOf(canonical string) string {
	if k, ok := canonicalKinds[canonical]; ok {
		return k
	}
	return "unknown"
}
