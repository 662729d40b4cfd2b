package machd

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"machlock/internal/monitor"
)

// Options configures a daemon.
type Options struct {
	// World sizes the resident population.
	World WorldConfig
	// RPCAddr is the TCP address the netmsg RPC front end listens on
	// (default 127.0.0.1:0 — an ephemeral port; read the bound address
	// back with RPCAddr()).
	RPCAddr string
	// HTTPAddr is the observability surface's listen address (default
	// 127.0.0.1:0; empty string "none" semantics are not offered — a
	// daemon without its scrape endpoint would be blind).
	HTTPAddr string
	// Monitor configures the watchdog. Zero values get daemon-appropriate
	// defaults: deadlock detection on, a 1s long-hold threshold (orders
	// of magnitude above the chaos injector's holds), and a 1-minute
	// incident re-arm so a persistent anomaly keeps filing instead of
	// being deduplicated once per process lifetime.
	Monitor monitor.Config
	// SLO configures the objective accounting.
	SLO SLOConfig
}

func (o Options) withDefaults() Options {
	if o.RPCAddr == "" {
		o.RPCAddr = "127.0.0.1:0"
	}
	if o.HTTPAddr == "" {
		o.HTTPAddr = "127.0.0.1:0"
	}
	if o.Monitor.LongHoldNs == 0 {
		o.Monitor.LongHoldNs = int64(time.Second)
	}
	if o.Monitor.Rearm == 0 {
		o.Monitor.Rearm = time.Minute
	}
	return o
}

// Daemon is a running machd: the world, its network front end, the
// watchdog, the SLO collector, and the HTTP observability surface.
type Daemon struct {
	opts Options

	world *World
	col   *Collector
	mon   *monitor.Monitor

	rpcLn   net.Listener
	httpLn  net.Listener
	httpSrv *http.Server
}

// Start builds the world and brings every surface up. On return the
// daemon is serving RPCs on RPCAddr() and its scrape on HTTPAddr().
func Start(opts Options) (*Daemon, error) {
	opts = opts.withDefaults()
	d := &Daemon{
		opts: opts,
		col:  NewCollector(opts.SLO),
		mon:  monitor.New(opts.Monitor),
	}

	// The monitor first: Start enables tracing and installs the lock
	// observers, so the watchdog sees every hold from the very first RPC.
	d.mon.Start()

	world, err := NewWorld(opts.World)
	if err != nil {
		d.mon.Stop()
		return nil, err
	}
	d.world = world

	d.rpcLn, err = net.Listen("tcp", opts.RPCAddr)
	if err != nil {
		d.mon.Stop()
		return nil, fmt.Errorf("machd: rpc listen: %w", err)
	}
	d.httpLn, err = net.Listen("tcp", opts.HTTPAddr)
	if err != nil {
		d.rpcLn.Close()
		d.mon.Stop()
		return nil, fmt.Errorf("machd: http listen: %w", err)
	}

	world.Start(d.rpcLn)

	// One combined scrape: the monitor's debug tree is mounted whole,
	// but the exact /metrics pattern (which beats the tree's prefix
	// route) serves machlock_* and machd_* families together.
	mux := http.NewServeMux()
	mux.Handle("/debug/machlock/", d.mon.Handler())
	mux.HandleFunc("/debug/machlock/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.WriteMetrics(w)
	})
	d.httpSrv = &http.Server{Handler: mux}
	go d.httpSrv.Serve(d.httpLn)

	return d, nil
}

// RPCAddr returns the bound RPC address.
func (d *Daemon) RPCAddr() string { return d.rpcLn.Addr().String() }

// HTTPAddr returns the bound observability address.
func (d *Daemon) HTTPAddr() string { return d.httpLn.Addr().String() }

// Collector returns the daemon's SLO collector.
func (d *Daemon) Collector() *Collector { return d.col }

// Monitor returns the daemon's watchdog.
func (d *Daemon) Monitor() *monitor.Monitor { return d.mon }

// World returns the daemon's population.
func (d *Daemon) World() *World { return d.world }

// WriteMetrics renders the combined Prometheus scrape: trace per-class and
// per-op families, the monitor's self-families, then the machd SLO
// families — one exposition, so per-operation latency (with wait-vs-work
// split) sits next to per-class lock-wait quantiles and the budgets.
func (d *Daemon) WriteMetrics(w io.Writer) {
	d.mon.WriteMetrics(w)
	d.col.WriteProm(w)
}

// Stop tears the daemon down in dependency order: HTTP surface, network
// front end + world, then the watchdog.
func (d *Daemon) Stop() {
	d.httpSrv.Close()
	d.world.Stop()
	d.mon.Stop()
}

// IncidentKinds lists the watchdog incident kinds a healthy run must
// leave at zero.
var IncidentKinds = []monitor.IncidentKind{
	monitor.KindDeadlock, monitor.KindLongHold, monitor.KindLongWait, monitor.KindRefLeak,
}
