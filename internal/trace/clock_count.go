//go:build tracecheck

package trace

import "sync/atomic"

// Under the tracecheck build tag every trace-clock read is counted, so
// tests can assert that a recording path on a disabled class never reads
// the clock:
//
//	go test -tags tracecheck ./internal/trace/... ./internal/core/...
var clockReads atomic.Int64

func countClockRead() { clockReads.Add(1) }

// ClockReads returns how many times Now has been called since process
// start (tracecheck builds only).
func ClockReads() int64 { return clockReads.Load() }
