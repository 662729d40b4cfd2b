package machd

import (
	"errors"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("lookup=50, churn=15,spawn=10")
	if err != nil {
		t.Fatal(err)
	}
	if m[ScenLookup] != 50 || m[ScenChurn] != 15 || m[ScenSpawn] != 10 {
		t.Fatalf("mix = %v", m)
	}
	for _, bad := range []string{"", "bogus=1", "lookup", "lookup=0", "lookup=-3", "lookup=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	shares := DefaultMix.Shares()
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestCollectorBudgets(t *testing.T) {
	c := NewCollector(SLOConfig{Window: 5 * time.Second, ErrorBudget: 0.10, TimeoutBudget: 0.10})
	for i := 0; i < 100; i++ {
		c.Offered(ScenLookup)
		c.Begin()
		var err error
		if i < 5 {
			err = errors.New("boom") // 5% failure: half the 10% budget
		}
		c.Done(ScenLookup, time.Millisecond, err, false)
	}
	failRatio, failBudget, _, timeoutBudget := c.Budgets()
	if failRatio < 0.04 || failRatio > 0.06 {
		t.Fatalf("failRatio = %v, want ~0.05", failRatio)
	}
	if failBudget < 0.4 || failBudget > 0.6 {
		t.Fatalf("failBudget = %v, want ~0.5", failBudget)
	}
	if timeoutBudget != 1 {
		t.Fatalf("timeoutBudget = %v, want 1 (no timeouts)", timeoutBudget)
	}
	snap := c.Snapshot()
	var lookup *ScenarioSnapshot
	for i := range snap {
		if snap[i].Name == ScenLookup {
			lookup = &snap[i]
		}
	}
	if lookup == nil || lookup.Offered != 100 || lookup.Done != 95 || lookup.Failed != 5 {
		t.Fatalf("snapshot = %+v", lookup)
	}
}

// TestSLOPromGoldenSchema pins the machd families appended to the
// combined scrape: names, types, and label keys.
func TestSLOPromGoldenSchema(t *testing.T) {
	c := NewCollector(SLOConfig{})
	c.Offered(ScenLookup)
	c.Begin()
	c.Done(ScenLookup, time.Millisecond, nil, false)

	var sb strings.Builder
	c.WriteProm(&sb)
	text := sb.String()

	typeRe := regexp.MustCompile(`(?m)^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$`)
	got := map[string]string{}
	for _, m := range typeRe.FindAllStringSubmatch(text, -1) {
		got[m[1]] = m[2]
	}
	want := map[string]string{
		"machd_requests_total":         "counter",
		"machd_failures_total":         "counter",
		"machd_timeouts_total":         "counter",
		"machd_shed_total":             "counter",
		"machd_inflight":               "gauge",
		"machd_client_latency_ns":      "summary",
		"machd_client_latency_ns_max":  "gauge",
		"machd_scenario_mix":           "gauge",
		"machd_window_failure_ratio":   "gauge",
		"machd_window_timeout_ratio":   "gauge",
		"machd_error_budget_remaining": "gauge",
	}
	for fam, typ := range want {
		if got[fam] != typ {
			t.Errorf("family %s: type %q, want %q", fam, got[fam], typ)
		}
	}
	for fam := range got {
		if _, ok := want[fam]; !ok {
			t.Errorf("new machd family %s — add it to the golden schema deliberately", fam)
		}
	}
	for _, sample := range []string{
		`machd_requests_total{scenario="lookup"} 1`,
		`machd_client_latency_ns{scenario="lookup",quantile="0.5"}`,
		`machd_client_latency_ns{scenario="lookup",quantile="0.9"}`,
		`machd_client_latency_ns{scenario="lookup",quantile="0.99"}`,
		`machd_error_budget_remaining{budget="errors"}`,
		`machd_error_budget_remaining{budget="timeouts"}`,
	} {
		if !strings.Contains(text, sample) {
			t.Errorf("exposition missing %q", sample)
		}
	}
}

// TestDaemonEndToEnd is the tentpole's in-process smoke: boot the daemon
// on ephemeral ports, offer a short burst of every scenario over real
// sockets, and check the SLO surface — quantiles recorded per scenario,
// the combined scrape carrying lock-class and op families next to the
// machd families, and no incidents.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load test")
	}
	d, err := Start(Options{
		World: WorldConfig{Tasks: 8, PortsPerTask: 8, VMPages: 16, ServerThreads: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	res, err := RunLoad(LoadConfig{
		Addr:     d.RPCAddr(),
		Conns:    2,
		Workers:  8,
		Rate:     1500,
		Duration: 2 * time.Second,
		HoldUs:   200,
		Mix:      DefaultMix,
	}, d.Collector())
	if err != nil {
		t.Fatal(err)
	}

	// Every scenario was offered, completed work, and recorded ordered
	// latency quantiles.
	for _, s := range d.Collector().Snapshot() {
		if s.Offered == 0 {
			t.Errorf("scenario %s: never offered", s.Name)
			continue
		}
		if s.Done == 0 {
			t.Errorf("scenario %s: offered %d, completed none", s.Name, s.Offered)
		}
		if s.P50Ns <= 0 || s.P99Ns < s.P50Ns {
			t.Errorf("scenario %s: quantiles p50=%d p99=%d", s.Name, s.P50Ns, s.P99Ns)
		}
	}

	// The world actually exercised its subsystems.
	if res.Stat.Spawns == 0 || res.Stat.Faults == 0 || res.Stat.Kills+res.Stat.Holds == 0 {
		t.Fatalf("world untouched: %+v", res.Stat)
	}

	// One combined scrape over HTTP: machd SLO families next to the
	// machlock trace + monitor families.
	resp, err := http.Get("http://" + d.HTTPAddr() + "/debug/machlock/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	scrape := string(body)
	for _, family := range []string{
		"machlock_acquisitions_total",
		"machlock_wait_time_ns",
		"machlock_op_latency_ns",
		"machlock_op_lock_wait_ns",
		"machlock_op_work_ns",
		"machlock_monitor_up",
		"machd_requests_total",
		"machd_client_latency_ns",
		"machd_scenario_mix",
		"machd_error_budget_remaining",
	} {
		if !strings.Contains(scrape, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	if !strings.Contains(scrape, `machlock_op_latency_ns{pkg="machd",op="op.lookup",quantile="0.5"}`) {
		t.Error("scrape missing machd op quantiles")
	}

	// A healthy run files nothing.
	for _, k := range IncidentKinds {
		if n := d.Monitor().IncidentCount(k); n != 0 {
			t.Errorf("%d %s incidents during healthy run", n, k)
		}
	}
}

// TestDaemonStopIsClean pins the teardown ordering: Stop returns (no
// wedged server threads, no leaked Export goroutine) and the RPC port
// stops answering.
func TestDaemonStopIsClean(t *testing.T) {
	d, err := Start(Options{
		World: WorldConfig{Tasks: 2, PortsPerTask: 2, VMPages: 4, ServerThreads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := make(chan struct{})
	go func() {
		d.Stop()
		close(res)
	}()
	select {
	case <-res:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon Stop wedged")
	}
}
