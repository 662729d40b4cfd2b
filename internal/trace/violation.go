package trace

import (
	"sync/atomic"

	"machlock/internal/stats"
)

// Lock-ordering violation surfacing: splock.Hierarchy instances report
// every ordering violation here, so the counts and the most recent report
// text are visible process-wide — in the Prometheus exposition, the
// expvar-style JSON, and the monitor's incident detection — instead of
// only in whichever package happened to construct the checker.

// violationClass is the registry entry violations are recorded against in
// the flight recorder; it carries no lock traffic of its own, so it never
// appears in Ranked output.
var violationClass = NewClass("splock", "splock.hierarchy", KindSpin)

var (
	hierViolations stats.Counter
	hierLastReport atomic.Pointer[string]
)

// HierarchyViolation records one lock-ordering violation with its report
// text. Called by splock.Hierarchy.checkOrder; counted even while tracing
// is disabled (a violation is a protocol error, not a sample), though the
// flight-recorder event is only emitted when tracing is on.
func HierarchyViolation(report string) {
	hierViolations.Inc()
	hierLastReport.Store(&report)
	if Enabled() {
		emit(violationClass.id, OpViolation, hierViolations.Load(), 0, 0)
	}
}

// HierarchyViolations returns the process-wide count of lock-ordering
// violations reported by all splock.Hierarchy checkers.
func HierarchyViolations() int64 { return hierViolations.Load() }

// LastHierarchyViolation returns the most recent violation report text, or
// "". Safe under concurrent readers and writers.
func LastHierarchyViolation() string {
	if s := hierLastReport.Load(); s != nil {
		return *s
	}
	return ""
}

// ResetHierarchyViolations zeroes the count and clears the last report;
// for tests and experiment harness runs.
func ResetHierarchyViolations() {
	hierViolations.Reset()
	hierLastReport.Store(nil)
}
