// Command machd runs the Mach lock/refcount machinery as a long-lived
// service: a resident population of tasks, port name spaces, and vm
// objects served over real TCP sockets, with a Prometheus scrape and the
// full machlock debug tree on an HTTP port.
//
// Serve mode (default) runs until interrupted:
//
//	machd -rpc 127.0.0.1:7207 -http 127.0.0.1:7208
//
// Load mode boots the daemon, drives the built-in open-loop generator
// against it, prints the per-scenario summary, and exits:
//
//	machd -load -duration 60s -rate 2000 -mix default
//
// Smoke mode is the CI gate: ephemeral ports, four distinct scenario
// mixes over real sockets, then hard assertions on the collector
// snapshot, the scrape and the incident counts:
//
//	machd -smoke [-lockgraph lockgraph-dynamic-machd.json]
//
// Neither mode is a benchmark: performance numbers come from
// `go run ./bench` (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"machlock/internal/lockgraph"
	"machlock/internal/machd"
	"machlock/internal/trace"
)

func main() {
	var (
		rpcAddr  = flag.String("rpc", "127.0.0.1:0", "RPC listen address")
		httpAddr = flag.String("http", "127.0.0.1:0", "observability listen address")

		tasks    = flag.Int("tasks", 32, "resident task population")
		ports    = flag.Int("ports", 16, "stable lookup ports per task")
		vmpages  = flag.Int("vmpages", 64, "pages mapped per task")
		poolsize = flag.Int("poolpages", 0, "physical page pool size (0 = half the population's mappings)")
		threads  = flag.Int("server-threads", 8, "kernel threads draining the service port")

		load      = flag.Bool("load", false, "drive the built-in load generator, then exit")
		smoke     = flag.Bool("smoke", false, "CI smoke: four mixes on ephemeral ports, assert the scrape, exit")
		mixFlag   = flag.String("mix", "default", "scenario mix: a named mix or name=weight,...")
		rate      = flag.Float64("rate", 2000, "open-loop arrival rate (requests/sec)")
		conns     = flag.Int("conns", 4, "load generator TCP connections")
		workers   = flag.Int("workers", 16, "load generator concurrent workers")
		duration  = flag.Duration("duration", 10*time.Second, "load duration")
		timeout   = flag.Duration("timeout", 250*time.Millisecond, "soft per-request deadline")
		badPct    = flag.Int("bad-lookup-pct", 0, "percent of lookups aimed at a dead name")
		holdUs    = flag.Int("hold-us", 1000, "chaos slow-holder duration (microseconds)")
		seed      = flag.Int64("seed", 1, "load generator random seed")
		lockGraph = flag.String("lockgraph", "", "collect the runtime lock-order graph and write it here after a smoke/load run (- for stdout)")
	)
	flag.Parse()

	if *lockGraph != "" {
		trace.EnableLockGraph()
	}

	if *smoke {
		os.Exit(runSmoke(*lockGraph))
	}

	mix, err := resolveMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	d, err := machd.Start(machd.Options{
		World: machd.WorldConfig{
			Tasks:         *tasks,
			PortsPerTask:  *ports,
			VMPages:       *vmpages,
			PoolPages:     *poolsize,
			ServerThreads: *threads,
		},
		RPCAddr:  *rpcAddr,
		HTTPAddr: *httpAddr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("machd: serving rpc on %s\n", d.RPCAddr())
	fmt.Printf("machd: observability on http://%s/debug/machlock/\n", d.HTTPAddr())

	if *load {
		cfg := machd.LoadConfig{
			Addr:         d.RPCAddr(),
			Conns:        *conns,
			Workers:      *workers,
			Rate:         *rate,
			Mix:          mix,
			Duration:     *duration,
			Timeout:      *timeout,
			BadLookupPct: *badPct,
			HoldUs:       *holdUs,
			Seed:         *seed,
		}
		fmt.Printf("machd: offering %.0f req/s of %s for %s\n", cfg.Rate, mix, *duration)
		res, err := machd.RunLoad(cfg, d.Collector())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			d.Stop()
			os.Exit(1)
		}
		printSummary(os.Stdout, d, res.Elapsed)
		if *lockGraph != "" {
			if err := dumpLockGraph(d, *lockGraph); err != nil {
				fmt.Fprintln(os.Stderr, err)
				d.Stop()
				os.Exit(1)
			}
		}
		d.Stop()
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("machd: shutting down")
	d.Stop()
}

// resolveMix accepts a named mix or an inline name=weight list.
func resolveMix(s string) (machd.Mix, error) {
	if m, ok := machd.NamedMixes[s]; ok {
		return m, nil
	}
	if !strings.Contains(s, "=") {
		names := make([]string, 0, len(machd.NamedMixes))
		for n := range machd.NamedMixes {
			names = append(names, n)
		}
		return nil, fmt.Errorf("machd: unknown mix %q (named mixes: %s)", s, strings.Join(names, ", "))
	}
	return machd.ParseMix(s)
}

// printSummary prints the run's totals and per-scenario client latency
// straight from the collector.
func printSummary(w io.Writer, d *machd.Daemon, elapsed time.Duration) {
	snap := d.Collector().Snapshot()
	var ops, errs, timeouts int64
	for _, s := range snap {
		ops += s.Done + s.Failed
		errs += s.Failed
		timeouts += s.TimedOut
	}
	sec := elapsed.Seconds()
	fmt.Fprintf(w, "machd: %d ops in %.1fs (%.0f/s), %d errors, %d timeouts\n",
		ops, sec, float64(ops)/sec, errs, timeouts)
	for _, s := range snap {
		if s.Offered == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s p50=%-8s p90=%-8s p99=%-8s max=%-8s shed=%d\n",
			s.Name,
			time.Duration(s.P50Ns), time.Duration(s.P90Ns),
			time.Duration(s.P99Ns), time.Duration(s.MaxNs), s.Shed)
	}
}

// smokeMixes are the four distinct scenario mixes the smoke drives over
// real sockets — each leans on a different subsystem.
var smokeMixes = []string{"lookup-storm", "churn-heavy", "vm-pressure", "chaos"}

// dumpLockGraph pulls the dynamic lock-order graph through the daemon's
// real HTTP surface — exercising the monitor endpoint, not just the
// in-process snapshot — and writes it to path.
func dumpLockGraph(d *machd.Daemon, path string) error {
	resp, err := http.Get("http://" + d.HTTPAddr() + "/debug/machlock/lockgraph")
	if err != nil {
		return fmt.Errorf("machd: lockgraph fetch: %w", err)
	}
	defer resp.Body.Close()
	g, err := lockgraph.Read(resp.Body)
	if err != nil {
		return fmt.Errorf("machd: lockgraph decode: %w", err)
	}
	if err := lockgraph.WriteFile(path, g); err != nil {
		return fmt.Errorf("machd: lockgraph write: %w", err)
	}
	if path != "-" {
		fmt.Printf("machd: wrote %s (%d classes, %d edges)\n", path, len(g.Nodes), len(g.Edges))
	}
	return nil
}

// runSmoke is the CI gate. It returns the process exit code.
func runSmoke(lockGraphPath string) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "machd-smoke: FAIL: "+format+"\n", args...)
		return 1
	}

	d, err := machd.Start(machd.Options{
		World: machd.WorldConfig{Tasks: 16, PortsPerTask: 8, VMPages: 32, ServerThreads: 6},
	})
	if err != nil {
		return fail("start: %v", err)
	}
	defer d.Stop()
	fmt.Printf("machd-smoke: rpc %s, http %s\n", d.RPCAddr(), d.HTTPAddr())

	var elapsed time.Duration
	for _, name := range smokeMixes {
		res, err := machd.RunLoad(machd.LoadConfig{
			Addr:     d.RPCAddr(),
			Conns:    2,
			Workers:  8,
			Rate:     1500,
			Mix:      machd.NamedMixes[name],
			Duration: 1500 * time.Millisecond,
			HoldUs:   200,
		}, d.Collector())
		if err != nil {
			return fail("mix %s: %v", name, err)
		}
		elapsed += res.Elapsed
		fmt.Printf("machd-smoke: mix %-12s done (%.1fs)\n", name, res.Elapsed.Seconds())
	}

	// Every scenario completed work and recorded latency quantiles.
	covered := 0
	for _, s := range d.Collector().Snapshot() {
		if s.Done == 0 {
			continue
		}
		covered++
		if s.P50Ns <= 0 || s.P99Ns < s.P50Ns {
			return fail("scenario %s: broken quantiles p50=%d p99=%d", s.Name, s.P50Ns, s.P99Ns)
		}
	}
	if covered < 4 {
		return fail("only %d scenarios completed work, want >= 4", covered)
	}

	// The combined scrape, over the real HTTP surface.
	resp, err := http.Get("http://" + d.HTTPAddr() + "/debug/machlock/metrics")
	if err != nil {
		return fail("scrape: %v", err)
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
			return fail("scrape missing family %s", family)
		}
	}
	// SLO histograms are non-empty: a real quantile sample for machd ops.
	if !strings.Contains(scrape, `machlock_op_latency_ns{pkg="machd",op="op.lookup",quantile="0.99"}`) {
		return fail("scrape missing machd op latency quantiles")
	}

	// Zero incidents on a healthy run.
	for _, k := range machd.IncidentKinds {
		if n := d.Monitor().IncidentCount(k); n != 0 {
			return fail("%d %s incidents", n, k)
		}
	}

	if lockGraphPath != "" {
		if err := dumpLockGraph(d, lockGraphPath); err != nil {
			return fail("%v", err)
		}
	}
	printSummary(os.Stdout, d, elapsed)
	fmt.Printf("machd-smoke: PASS (%d mixes)\n", len(smokeMixes))
	return 0
}
