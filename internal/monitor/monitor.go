// Package monitor is the kernel's continuous self-observation service: a
// background watchdog that watches the trace layer's contention profiles,
// the deadlock tracker's wait-for graph, and the live-object census, and
// files structured incident reports when any of them crosses a configured
// threshold. It is the "always on in production" complement to the
// on-demand tools (cmd/locktrace, cmd/deadlockdemo): where those require a
// developer at the keyboard, the monitor captures the evidence — offending
// class, holder and waiter threads, flight-recorder tail, wait-for graph —
// at the moment the anomaly happens, into a bounded in-memory log served
// over HTTP (see Handler).
//
// The monitor deliberately layers on the existing observability surfaces
// rather than adding new hooks: it installs a deadlock.Tracker through the
// cxlock observer fan-out (coexisting with any other observers) and reads
// the same trace.Profiles() the exporters read. With the monitor stopped,
// kernel hot paths pay exactly what they paid before — one atomic load per
// trace hook and one nil check per observer dispatch.
package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"machlock/internal/core/splock"
	"machlock/internal/deadlock"
	"machlock/internal/trace"
)

// Config tunes the watchdog. The zero value is usable: deadlock detection
// on, every threshold check off.
type Config struct {
	// Interval between watchdog passes (default 100ms).
	Interval time.Duration

	// LongHoldNs files a long-hold incident when a class's maximum
	// observed hold time crosses it. 0 disables the check.
	LongHoldNs int64
	// LongWaitNs files a long-wait incident when a class's maximum
	// observed wait time crosses it. 0 disables the check.
	LongWaitNs int64
	// RefLeakLive files a ref-leak incident when a class's live census
	// exceeds it — the signature of a missing Release in a loop.
	// 0 disables the check.
	RefLeakLive int64

	// DeadlockSamples and DeadlockSampleGap parameterize
	// deadlock.DetectStable on each pass (defaults 3 and 1ms): cycles must
	// persist across all samples, filtering transient spin waits.
	DeadlockSamples   int
	DeadlockSampleGap time.Duration

	// Incidents bounds the incident log (default DefaultIncidentCapacity).
	Incidents int
	// RingTail is how many flight-recorder events each incident captures
	// (default 32).
	RingTail int

	// Rearm re-arms the per-anomaly incident dedup on this period, so an
	// anomaly that persists (a lock held for minutes, a census that keeps
	// climbing) files fresh incidents instead of exactly one per monitor
	// run. 0 keeps the original file-once behaviour — right for tests and
	// short tools, wrong for a long-running daemon.
	Rearm time.Duration
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.DeadlockSamples < 1 {
		c.DeadlockSamples = 3
	}
	if c.DeadlockSampleGap <= 0 {
		c.DeadlockSampleGap = time.Millisecond
	}
	if c.RingTail < 1 {
		c.RingTail = 32
	}
	return c
}

// Monitor is the watchdog service. Create with New, start with Start,
// inspect through Incidents/Tracker/Handler.
type Monitor struct {
	cfg     Config
	tracker *deadlock.Tracker
	log     *IncidentLog
	spc     spCensus

	ticks     atomic.Int64
	byKind    [4]atomic.Int64 // indexed by kindIndex
	startedAt atomic.Int64    // unix ns; 0 = not running
	lastRearm atomic.Int64    // unix ns of the last dedup re-arm

	mu       sync.Mutex
	reported map[string]bool // dedup: incidents already filed this run
	running  bool
	ownTrace bool // we enabled tracing, so Stop disables it
	stop     chan struct{}
	done     chan struct{}
}

// spCensus is the monitor's simple-lock observer: an aggregate census of
// spin-lock traffic (PR 3 noted spin locks were invisible to the monitor;
// the splock observer fan-out closes that). Counts are monitor-lifetime —
// collection starts at Start and pauses at Stop. The observer runs on
// every spin acquisition and release, traced or not, so the counts live
// in the trace layer's goroutine-sharded Counts (lanes below) rather than
// in process-wide atomics every locker would share.
type spCensus struct {
	n trace.Counts
}

// The census lanes.
const (
	spAcquired  = iota
	spContended // subset of spAcquired
	spReleased
	spSpinning // threads currently in a contended spin
)

func (c *spCensus) Acquired(l *splock.Lock, contended bool) {
	c.n.Add(spAcquired, 1)
	if contended {
		c.n.Add(spContended, 1)
	}
}

func (c *spCensus) Released(l *splock.Lock) { c.n.Add(spReleased, 1) }

func (c *spCensus) Waiting(l *splock.Lock) { c.n.Add(spSpinning, 1) }

func (c *spCensus) DoneWaiting(l *splock.Lock) { c.n.Add(spSpinning, -1) }

func kindIndex(k IncidentKind) int {
	switch k {
	case KindDeadlock:
		return 0
	case KindLongHold:
		return 1
	case KindLongWait:
		return 2
	default:
		return 3 // KindRefLeak
	}
}

// New creates a monitor with its own deadlock tracker and incident log.
// Nothing observes or runs until Start.
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	return &Monitor{
		cfg:      cfg,
		tracker:  deadlock.NewTracker(),
		log:      NewIncidentLog(cfg.Incidents),
		reported: make(map[string]bool),
	}
}

// Tracker returns the monitor's deadlock tracker (for naming locks in
// reports: tracker.Name).
func (m *Monitor) Tracker() *deadlock.Tracker { return m.tracker }

// Incidents returns the monitor's incident log.
func (m *Monitor) Incidents() *IncidentLog { return m.log }

// Ticks returns how many watchdog passes have run.
func (m *Monitor) Ticks() int64 { return m.ticks.Load() }

// IncidentCount returns how many incidents of kind have been filed.
func (m *Monitor) IncidentCount(kind IncidentKind) int64 {
	return m.byKind[kindIndex(kind)].Load()
}

// Running reports whether the watchdog goroutine is live.
func (m *Monitor) Running() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Start enables tracing (if it was off), installs the deadlock tracker as
// a cxlock observer and the simple-lock census observer, and launches the
// watchdog goroutine.
// Idempotent while running.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	if !trace.Enabled() {
		trace.Enable()
		m.ownTrace = true
	}
	m.tracker.Install()
	splock.AddObserver(&m.spc)
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	m.running = true
	m.startedAt.Store(time.Now().UnixNano())
	go m.run(m.stop, m.done)
}

// Stop halts the watchdog, uninstalls the tracker, and disables tracing if
// Start had enabled it. The incident log and counters survive for
// inspection. Idempotent while stopped.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	stop, done := m.stop, m.done
	m.running = false
	m.mu.Unlock()

	close(stop)
	<-done

	m.tracker.Uninstall()
	splock.RemoveObserver(&m.spc)
	m.mu.Lock()
	if m.ownTrace {
		trace.Disable()
		m.ownTrace = false
	}
	m.startedAt.Store(0)
	m.mu.Unlock()
}

func (m *Monitor) run(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			m.Pass()
		}
	}
}

// Pass runs one watchdog pass synchronously: deadlock detection plus every
// enabled threshold check. Exposed so tests (and the smoke tool) can force
// a pass without waiting out the interval.
func (m *Monitor) Pass() {
	m.ticks.Add(1)
	m.maybeRearm()
	m.checkDeadlocks()
	m.checkProfiles()
}

// maybeRearm clears the incident dedup set once per cfg.Rearm period.
func (m *Monitor) maybeRearm() {
	if m.cfg.Rearm <= 0 {
		return
	}
	now := time.Now().UnixNano()
	last := m.lastRearm.Load()
	if last == 0 {
		m.lastRearm.CompareAndSwap(0, now)
		return
	}
	if now-last < int64(m.cfg.Rearm) || !m.lastRearm.CompareAndSwap(last, now) {
		return
	}
	m.mu.Lock()
	m.reported = make(map[string]bool)
	m.mu.Unlock()
}

// once returns true the first time key is seen, filing at most one
// incident per distinct anomaly per monitor run.
func (m *Monitor) once(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reported[key] {
		return false
	}
	m.reported[key] = true
	return true
}

// file stamps and stores an incident, capturing the wait-for graph and the
// flight recorder tail.
func (m *Monitor) file(in Incident) {
	in.Time = time.Now()
	in.WaitGraphDOT = m.tracker.WaitGraphDOT()
	events := trace.Events(m.cfg.RingTail)
	in.RingTail = make([]string, len(events))
	for i, e := range events {
		in.RingTail[i] = e.String()
	}
	m.byKind[kindIndex(in.Kind)].Add(1)
	m.log.Add(in)
}

func (m *Monitor) checkDeadlocks() {
	cycles := m.tracker.DetectStable(m.cfg.DeadlockSamples, m.cfg.DeadlockSampleGap)
	if len(cycles) == 0 {
		return
	}
	var fresh []string
	for _, c := range cycles {
		if m.once("deadlock:" + c.String()) {
			fresh = append(fresh, c.String())
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.file(Incident{
		Kind: KindDeadlock,
		Summary: fmt.Sprintf("wait-for cycle stable across %d samples (%d cycle(s))",
			m.cfg.DeadlockSamples, len(fresh)),
		Detail: m.tracker.Snapshot(),
		Cycles: fresh,
	})
}

func (m *Monitor) checkProfiles() {
	if m.cfg.LongHoldNs == 0 && m.cfg.LongWaitNs == 0 && m.cfg.RefLeakLive == 0 {
		return
	}
	for _, p := range trace.Profiles() {
		key := p.Pkg + "/" + p.Name
		if m.cfg.LongHoldNs > 0 && p.MaxHoldNs > m.cfg.LongHoldNs && m.once("long-hold:"+key) {
			m.file(Incident{
				Kind:  KindLongHold,
				Class: key,
				Summary: fmt.Sprintf("max hold %dns exceeds threshold %dns (p99 %dns over %d releases)",
					p.MaxHoldNs, m.cfg.LongHoldNs, p.P99HoldNs, p.Releases),
			})
		}
		if m.cfg.LongWaitNs > 0 && p.MaxWaitNs > m.cfg.LongWaitNs && m.once("long-wait:"+key) {
			m.file(Incident{
				Kind:  KindLongWait,
				Class: key,
				Summary: fmt.Sprintf("max wait %dns exceeds threshold %dns (p99 %dns over %d contended acquisitions)",
					p.MaxWaitNs, m.cfg.LongWaitNs, p.P99WaitNs, p.Contended),
			})
		}
		if m.cfg.RefLeakLive > 0 && p.Live > m.cfg.RefLeakLive && m.once("ref-leak:"+key) {
			m.file(Incident{
				Kind:  KindRefLeak,
				Class: key,
				Summary: fmt.Sprintf("live census %d exceeds threshold %d (%d clones / %d releases)",
					p.Live, m.cfg.RefLeakLive, p.RefClones, p.RefReleases),
			})
		}
	}
}
