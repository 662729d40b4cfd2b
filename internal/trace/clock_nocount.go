//go:build !tracecheck

package trace

// countClockRead is the tracecheck hook (see clock_count.go); compiled
// out of normal builds.
func countClockRead() {}
