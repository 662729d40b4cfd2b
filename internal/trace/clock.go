package trace

import "time"

// The trace clock. Every timestamp the observability layer records — a
// flight-recorder slot, a lock's hold stamp, HoldInfo.Since, a span's
// start and end — is a reading of Now, and one lock event takes exactly
// one reading: the instrumented lock reads the clock once and hands that
// value to the recording method (AcquiredAt, ReleasedAt, WaitingAt,
// DoneWaitingAt), so the ring event and the hold arithmetic agree to the
// nanosecond.
//
// Now is the host's wall time captured once at package init, advanced by
// the monotonic clock since. Each reading is one monotonic read (about
// 60% of the cost of time.Now, which reads both clocks), and the timebase
// never jumps when the wall clock is stepped: differences between
// readings are always true elapsed time, and ordering is total. Values
// stay comparable with time.Now().UnixNano() as of process start, which
// is what timeline exports and event dumps print.
var (
	clockEpoch = time.Now()
	clockWall  = clockEpoch.UnixNano()
)

// Now returns the trace clock in nanoseconds. Instrumented code calls it
// only after Class.On has said yes, so a disabled class never pays for a
// clock read.
func Now() int64 {
	countClockRead()
	return clockWall + int64(time.Since(clockEpoch))
}
