package trace

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Op is a flight-recorder event type.
type Op uint8

// The event types. Arg carries the op-specific payload noted per op.
const (
	OpAcquire    Op = iota // lock acquired; Arg = wait ns (0 if first-try)
	OpRelease              // lock released; Arg = hold ns (-1 unknown)
	OpWait                 // wait (sleep or spin) for a lock began
	OpDoneWait             // wait ended; Arg = wait ns
	OpUpgrade              // read-to-write upgrade; Arg = 1 ok, 0 failed
	OpDowngrade            // write-to-read downgrade
	OpRefClone             // reference cloned; Arg = count after
	OpRefRelease           // reference released; Arg = count after
	OpDeactivate           // object deactivated (active termination)
	OpBiasRevoke           // reader bias revoked by a write request
	OpViolation            // lock-ordering violation; Arg = running count
	OpSpanBegin            // operation span opened (trace.BeginSpan)
	OpSpanEnd              // operation span closed; Arg = total ns
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpAcquire:
		return "acquire"
	case OpRelease:
		return "release"
	case OpWait:
		return "wait"
	case OpDoneWait:
		return "done-wait"
	case OpUpgrade:
		return "upgrade"
	case OpDowngrade:
		return "downgrade"
	case OpRefClone:
		return "ref-clone"
	case OpRefRelease:
		return "ref-release"
	case OpDeactivate:
		return "deactivate"
	case OpBiasRevoke:
		return "bias-revoke"
	case OpViolation:
		return "violation"
	case OpSpanBegin:
		return "span-begin"
	case OpSpanEnd:
		return "span-end"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// TimeNs is the trace-clock reading (Now) the event was recorded
	// with: process-start wall time plus monotonic elapsed time. For a
	// lock event it is the same reading the lock took for its own hold
	// stamp, so a release's TimeNs - Arg is its acquire's TimeNs.
	TimeNs int64
	Class  *Class // registered class (nil only if the registry was reset)
	Op     Op
	Arg    int64  // op-specific payload, see the Op constants
	TID    uint32 // recording thread's trace id (RegisterThread); 0 = anonymous
	Shard  int    // recorder shard the event landed in
	Seq    uint64 // shard-local sequence number (1-based)
}

// String renders the event for dumps.
func (e Event) String() string {
	name := "?"
	if e.Class != nil {
		name = e.Class.pkg + "/" + e.Class.name
	}
	if e.TID != 0 {
		return fmt.Sprintf("%d %-28s %-11s arg=%d tid=%d(%s)", e.TimeNs, name, e.Op, e.Arg, e.TID, ThreadName(e.TID))
	}
	return fmt.Sprintf("%d %-28s %-11s arg=%d", e.TimeNs, name, e.Op, e.Arg)
}

// slot is one ring entry. All fields are atomics so concurrent recording
// never takes a lock and never trips the race detector; seq doubles as the
// publication marker (stored last, zeroed first), so a reader that sees
// the same nonzero seq before and after loading the payload has a
// consistent event. A slot being overwritten during a concurrent dump is
// simply skipped.
type slot struct {
	seq  atomic.Uint64 // shard ticket of the occupying event; 0 = in flux
	time atomic.Int64
	meta atomic.Uint64 // tid << 32 | class id << 8 | op
	arg  atomic.Int64
}

// shard is one per-goroutine-sharded ring. The pad keeps hot cursors of
// neighbouring shards off one cache line.
type shard struct {
	pos   atomic.Uint64
	_     [7]uint64
	slots []slot
}

// ring is the whole flight recorder.
type ring struct {
	shards []shard
}

// nshards is the shard count; a power of two so the shard index is a mask.
const nshards = 16

// DefaultRingCapacity is the default number of retained events per shard.
const DefaultRingCapacity = 2048

func newRing(perShard int) *ring {
	if perShard < 1 {
		perShard = 1
	}
	r := &ring{shards: make([]shard, nshards)}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, perShard)
	}
	return r
}

var rec atomic.Pointer[ring]

func init() { rec.Store(newRing(DefaultRingCapacity)) }

// SetRingCapacity replaces the flight recorder with an empty one retaining
// n events per shard (n*16 total). Call while tracing is disabled; events
// recorded concurrently with the swap may land in the old ring and be
// lost.
func SetRingCapacity(n int) { rec.Store(newRing(n)) }

// ResetEvents discards all recorded events, keeping the current capacity.
func ResetEvents() { rec.Store(newRing(len(rec.Load().shards[0].slots))) }

// shardHint derives a shard index from the address of a stack local: cheap,
// allocation-free, and distinct per goroutine (stack segments are distinct
// allocations), so concurrent tracers land in different shards. Stability
// across stack growth is not needed — only distribution.
func shardHint() int {
	var b byte
	h := uintptr(unsafe.Pointer(&b))
	// Fibonacci mix so the low bits reflect the whole address, not the
	// within-frame offset.
	h = (h >> 6) * 0x9E3779B97F4A7C15
	return int((h >> 40) & (nshards - 1))
}

// emit records one event stamped now, a trace-clock reading the caller
// took; now == 0 means the caller took none, and emit reads the clock
// itself. Callers have already verified tracing is on; recording is
// wait-free: one atomic cursor bump plus atomic slot stores. tid is the
// recording thread's trace id (0 = anonymous); class ids above 24 bits
// would collide with it, far beyond any real registry size.
func emit(classID uint32, op Op, arg int64, tid uint32, now int64) {
	sh := &rec.Load().shards[shardHint()]
	t := sh.pos.Add(1)
	sl := &sh.slots[(t-1)%uint64(len(sh.slots))]
	if now == 0 {
		now = Now()
	}
	sl.seq.Store(0) // invalidate while the payload is in flux
	sl.time.Store(now)
	sl.meta.Store(uint64(tid)<<32 | uint64(classID&0xffffff)<<8 | uint64(op))
	sl.arg.Store(arg)
	sl.seq.Store(t)
}

// Events returns up to max recent events, oldest first, merged across
// shards in timestamp order. Dumping while tracing is running is safe;
// slots overwritten mid-read are skipped. For an exact tail, Disable
// first.
func Events(max int) []Event {
	r := rec.Load()
	var out []Event
	for si := range r.shards {
		sh := &r.shards[si]
		for i := range sh.slots {
			sl := &sh.slots[i]
			seq := sl.seq.Load()
			if seq == 0 {
				continue
			}
			ts := sl.time.Load()
			meta := sl.meta.Load()
			arg := sl.arg.Load()
			if sl.seq.Load() != seq {
				continue // overwritten while reading
			}
			out = append(out, Event{
				TimeNs: ts,
				Class:  classByID(uint32(meta>>8) & 0xffffff),
				Op:     Op(meta & 0xff),
				Arg:    arg,
				TID:    uint32(meta >> 32),
				Shard:  si,
				Seq:    seq,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeNs != out[j].TimeNs {
			return out[i].TimeNs < out[j].TimeNs
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}
