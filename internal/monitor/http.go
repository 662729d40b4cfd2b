package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"machlock/internal/lockgraph"
	"machlock/internal/trace"
)

// Handler returns the monitor's HTTP debug surface, ready to mount on any
// server (http.ListenAndServe(addr, m.Handler()) or a sub-route of an
// existing mux):
//
//	/debug/machlock/             index
//	/debug/machlock/profiles     contention profiles (text; ?format=csv|vars)
//	/debug/machlock/metrics      Prometheus text exposition
//	/debug/machlock/waitgraph    wait-for graph (Graphviz DOT)
//	/debug/machlock/incidents    incident log (text; ?format=json)
//	/debug/machlock/ring         flight-recorder tail (?n=200)
//	/debug/machlock/pprof/waits  waiter-stack profile (pprof proto, gzipped)
//	/debug/machlock/pprof/holds  holder-stack hold-time profile (pprof proto)
//	/debug/machlock/pprof/blame  holder-stack blamed-wait profile (pprof proto)
//	/debug/machlock/timeline     flight recorder as Chrome trace-event JSON
//
// The pprof endpoints speak go tool pprof's native protocol:
//
//	go tool pprof http://host:port/debug/machlock/pprof/waits
//
// and the timeline loads directly into ui.perfetto.dev or chrome://tracing.
//
// All endpoints are read-only snapshots; hitting them never perturbs the
// kernel beyond the snapshot reads themselves.
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/machlock/", m.serveIndex)
	mux.HandleFunc("/debug/machlock/profiles", m.serveProfiles)
	mux.HandleFunc("/debug/machlock/metrics", m.serveMetrics)
	mux.HandleFunc("/debug/machlock/waitgraph", m.serveWaitGraph)
	mux.HandleFunc("/debug/machlock/incidents", m.serveIncidents)
	mux.HandleFunc("/debug/machlock/ring", m.serveRing)
	mux.HandleFunc("/debug/machlock/pprof/", m.servePprof)
	mux.HandleFunc("/debug/machlock/timeline", m.serveTimeline)
	mux.HandleFunc("/debug/machlock/lockgraph", m.serveLockGraph)
	return mux
}

func (m *Monitor) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/debug/machlock/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "machlock monitor (running=%v, ticks=%d, incidents=%d)\n\n",
		m.Running(), m.Ticks(), m.log.Total())
	fmt.Fprintln(w, "endpoints:")
	fmt.Fprintln(w, "  /debug/machlock/profiles     contention profiles (?format=csv|vars)")
	fmt.Fprintln(w, "  /debug/machlock/metrics      Prometheus text exposition")
	fmt.Fprintln(w, "  /debug/machlock/waitgraph    wait-for graph (Graphviz DOT)")
	fmt.Fprintln(w, "  /debug/machlock/incidents    incident log (?format=json)")
	fmt.Fprintln(w, "  /debug/machlock/ring         flight-recorder tail (?n=200)")
	fmt.Fprintln(w, "  /debug/machlock/pprof/waits  waiter-stack wait profile (go tool pprof)")
	fmt.Fprintln(w, "  /debug/machlock/pprof/holds  holder-stack hold profile (go tool pprof)")
	fmt.Fprintln(w, "  /debug/machlock/pprof/blame  holder-stack blamed-wait profile (go tool pprof)")
	fmt.Fprintln(w, "  /debug/machlock/timeline     Chrome trace-event JSON (Perfetto)")
	fmt.Fprintln(w, "  /debug/machlock/lockgraph    observed class-order graph (machlock-lockgraph/v1 JSON)")
}

func (m *Monitor) serveProfiles(w http.ResponseWriter, r *http.Request) {
	profiles := trace.Profiles()
	switch r.URL.Query().Get("format") {
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		trace.WriteCSV(w, profiles)
	case "vars":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteVars(w, profiles)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.WriteText(w, profiles)
	}
}

func (m *Monitor) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WriteMetrics(w)
}

// WriteMetrics renders the full Prometheus scrape — the trace layer's
// per-class and per-op families followed by the monitor's own — to w.
// Exported so surfaces that extend the scrape with more families (machd's
// SLO layer) can serve one combined exposition.
func (m *Monitor) WriteMetrics(w io.Writer) {
	trace.WriteProm(w, trace.Profiles())
	m.writeOwnMetrics(w)
}

// writeOwnMetrics appends the monitor's self-describing families to a
// Prometheus scrape.
func (m *Monitor) writeOwnMetrics(w io.Writer) {
	fmt.Fprintln(w, "# HELP machlock_monitor_up Whether the watchdog goroutine is running.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_up gauge")
	up := 0
	if m.Running() {
		up = 1
	}
	fmt.Fprintf(w, "machlock_monitor_up %d\n", up)
	fmt.Fprintln(w, "# HELP machlock_monitor_ticks_total Watchdog passes completed.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_ticks_total counter")
	fmt.Fprintf(w, "machlock_monitor_ticks_total %d\n", m.Ticks())
	fmt.Fprintln(w, "# HELP machlock_monitor_incidents_total Incidents filed, by kind.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_incidents_total counter")
	for _, k := range []IncidentKind{KindDeadlock, KindLongHold, KindLongWait, KindRefLeak} {
		fmt.Fprintf(w, "machlock_monitor_incidents_total{kind=%q} %d\n", string(k), m.IncidentCount(k))
	}
	fmt.Fprintln(w, "# HELP machlock_monitor_incidents_dropped_total Incidents evicted from the bounded log.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_incidents_dropped_total counter")
	fmt.Fprintf(w, "machlock_monitor_incidents_dropped_total %d\n", m.log.Dropped())
	fmt.Fprintln(w, "# HELP machlock_monitor_splock_acquisitions_total Simple-lock acquisitions observed (monitor running).")
	fmt.Fprintln(w, "# TYPE machlock_monitor_splock_acquisitions_total counter")
	fmt.Fprintf(w, "machlock_monitor_splock_acquisitions_total %d\n", m.spc.n.Load(spAcquired))
	fmt.Fprintln(w, "# HELP machlock_monitor_splock_contended_total Observed simple-lock acquisitions that spun.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_splock_contended_total counter")
	fmt.Fprintf(w, "machlock_monitor_splock_contended_total %d\n", m.spc.n.Load(spContended))
	fmt.Fprintln(w, "# HELP machlock_monitor_splock_releases_total Simple-lock releases observed.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_splock_releases_total counter")
	fmt.Fprintf(w, "machlock_monitor_splock_releases_total %d\n", m.spc.n.Load(spReleased))
	fmt.Fprintln(w, "# HELP machlock_monitor_splock_spinners Threads currently spinning on a simple lock.")
	fmt.Fprintln(w, "# TYPE machlock_monitor_splock_spinners gauge")
	fmt.Fprintf(w, "machlock_monitor_splock_spinners %d\n", m.spc.n.Load(spSpinning))
	if started := m.startedAt.Load(); started != 0 {
		fmt.Fprintln(w, "# HELP machlock_monitor_uptime_seconds Seconds since the watchdog started.")
		fmt.Fprintln(w, "# TYPE machlock_monitor_uptime_seconds gauge")
		fmt.Fprintf(w, "machlock_monitor_uptime_seconds %.3f\n",
			time.Since(time.Unix(0, started)).Seconds())
	}
}

// servePprof serves the three site profiles in pprof's wire format. The
// path selects the kind: pprof/waits, pprof/holds, pprof/blame.
func (m *Monitor) servePprof(w http.ResponseWriter, r *http.Request) {
	var kind trace.SiteKind
	switch r.URL.Path {
	case "/debug/machlock/pprof/waits":
		kind = trace.SiteWaits
	case "/debug/machlock/pprof/holds":
		kind = trace.SiteHolds
	case "/debug/machlock/pprof/blame":
		kind = trace.SiteBlame
	default:
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="machlock-%s.pb.gz"`, kind))
	trace.WritePprof(w, kind)
}

// serveTimeline serves the flight-recorder tail as Chrome trace-event
// JSON; ?n bounds the number of events (default the whole ring).
func (m *Monitor) serveTimeline(w http.ResponseWriter, r *http.Request) {
	n := 0 // 0 = everything the ring retains
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteTimeline(w, trace.Events(n))
}

// serveLockGraph serves the runtime lock-order collector's snapshot in the
// machlock-lockgraph/v1 schema — the dynamic half of machvet -diff. An
// empty graph (collector never enabled, or nothing ran) is still valid
// output; the differ treats it as zero coverage, not an error.
func (m *Monitor) serveLockGraph(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g := trace.LockGraphSnapshot("monitor /debug/machlock/lockgraph")
	if err := lockgraph.Write(w, g); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (m *Monitor) serveWaitGraph(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	fmt.Fprint(w, m.tracker.WaitGraphDOT())
}

func (m *Monitor) serveIncidents(w http.ResponseWriter, r *http.Request) {
	incidents := m.log.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(incidents)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "incidents: %d retained, %d total, %d dropped\n\n",
		len(incidents), m.log.Total(), m.log.Dropped())
	for _, in := range incidents {
		fmt.Fprintln(w, in.String())
	}
}

func (m *Monitor) serveRing(w http.ResponseWriter, r *http.Request) {
	n := 200
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	trace.WriteEvents(w, trace.Events(n))
}
