// Command lockmon runs kernel workloads under the continuous monitor and
// serves the live debug/metrics surface over HTTP — the deployment shape
// the monitor is built for: always-on observation that captures incident
// evidence (cycles, holders, flight-recorder tail) the moment an anomaly
// happens, with no developer attached.
//
// It drives the vm, ipc, and zalloc workloads from cmd/locktrace under the
// watchdog, then injects a vm_map_pageable-style deadlock and shows the
// monitor catching it live. The paper's real Section 7.1 stall is a wait
// on MEMORY (not on a lock), which a wait-for-graph detector sees as only
// half a cycle; lockmon expresses the same shape as a pure lock cycle —
// the wiring thread holds the map lock for reading and needs the page-pool
// lock, while the pageout daemon holds the page-pool lock and needs the
// map lock for writing — so the watchdog can name the full cycle.
//
// Usage:
//
//	lockmon [-addr host:port] [-threads N] [-ops N] [-duration D]
//	lockmon -smoke        # self-check: ephemeral port, hit every endpoint
//	lockmon -smoke -pprof-out waits.pb.gz -timeline-out timeline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"machlock/internal/core/cxlock"
	"machlock/internal/ipc"
	"machlock/internal/monitor"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/vm"
	"machlock/internal/zalloc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8723", "HTTP listen address")
	threads := flag.Int("threads", 4, "concurrent threads per workload")
	ops := flag.Int("ops", 500, "operations per workload thread")
	duration := flag.Duration("duration", 0, "exit after this long (0 = until interrupted)")
	inject := flag.Bool("inject-deadlock", true, "inject the vm_map_pageable-style lock cycle")
	smoke := flag.Bool("smoke", false, "self-check mode: ephemeral port, probe every endpoint, exit")
	pprofOut := flag.String("pprof-out", "", "smoke mode: save the scraped pprof wait profile here")
	timelineOut := flag.String("timeline-out", "", "smoke mode: save the scraped Perfetto timeline here")
	flag.Parse()

	mon := monitor.New(monitor.Config{
		Interval:          10 * time.Millisecond,
		DeadlockSamples:   3,
		DeadlockSampleGap: time.Millisecond,
		RefLeakLive:       1 << 20, // census sanity backstop, not expected to trip
	})
	mon.Start()
	defer mon.Stop()

	listen := *addr
	if *smoke {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatalf("listen %s: %v", listen, err)
	}
	srv := &http.Server{Handler: mon.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("lockmon: monitor up, debug surface at %s/debug/machlock/\n", base)

	// Sample every hold and wait: lockmon is a demo and self-check, not a
	// hot kernel, so rich profiles beat the sampling discount — and the
	// smoke's pprof assertions stay deterministic.
	trace.SetSampling(1)

	fmt.Printf("lockmon: driving vm/ipc/zalloc workloads (%d threads x %d ops each)\n", *threads, *ops)
	runWorkloads(*threads, *ops)
	injectContention()

	if *inject {
		if !injectDeadlock(mon) {
			fatalf("injected deadlock was not captured")
		}
	}

	if *smoke {
		if err := smokeCheck(base, *inject); err != nil {
			fatalf("smoke check failed: %v", err)
		}
		if err := smokeArtifacts(base, *pprofOut, *timelineOut); err != nil {
			fatalf("smoke check failed: %v", err)
		}
		fmt.Println("lockmon: smoke check passed (all endpoints live, deadlock incident captured)")
		return
	}

	fmt.Println("lockmon: serving; scrape /debug/machlock/metrics or browse /debug/machlock/")
	if *duration > 0 {
		time.Sleep(*duration)
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lockmon: "+format+"\n", args...)
	os.Exit(1)
}

// runWorkloads drives the locktrace workloads so the profiles, census, and
// flight recorder have real traffic behind them.
func runWorkloads(threads, ops int) {
	runVM(threads, ops)
	runIPC(threads, ops)
	runZalloc(threads, ops)
}

func runVM(threads, ops int) {
	pool := vm.NewPool(64)
	m := vm.NewMap(pool)
	obj := vm.NewObject(pool, 32)
	setup := sched.Go("vm-setup", func(self *sched.Thread) {
		if err := m.Allocate(self, 0, 32, obj, 0); err != nil {
			panic(err)
		}
	})
	setup.Join()
	var ths []*sched.Thread
	for i := 0; i < threads; i++ {
		ths = append(ths, sched.Go(fmt.Sprintf("vm-%d", i), func(self *sched.Thread) {
			for n := 0; n < ops; n++ {
				if err := m.Fault(self, uint64(n%32), false); err != nil {
					panic(err)
				}
				if n%8 == 0 {
					m.Reference()
					m.Release(self)
				}
			}
		}))
	}
	for _, th := range ths {
		th.Join()
	}
	cleanup := sched.Go("vm-cleanup", func(self *sched.Thread) { m.Release(self) })
	cleanup.Join()
}

func runIPC(threads, ops int) {
	space := ipc.NewSpace()
	port := ipc.NewPort("lockmon")
	name := space.Insert(nil, port)
	var ths []*sched.Thread
	for i := 0; i < threads; i++ {
		ths = append(ths, sched.Go(fmt.Sprintf("ipc-%d", i), func(self *sched.Thread) {
			for n := 0; n < ops; n++ {
				p, err := space.Translate(self, name)
				if err != nil {
					panic(err)
				}
				if n%4 == 0 {
					msg := ipc.NewMessage(p, nil, n)
					if err := p.Send(msg); err != nil {
						msg.Destroy()
					} else if got, err := p.Receive(self); err == nil {
						got.Destroy()
					}
				}
				p.Release(nil)
			}
		}))
	}
	for _, th := range ths {
		th.Join()
	}
	space.DestroyAll(nil)
	port.Destroy()
}

func runZalloc(threads, ops int) {
	zone := zalloc.NewZone[int]("lockmon", threads*2, nil)
	var ths []*sched.Thread
	for i := 0; i < threads; i++ {
		ths = append(ths, sched.Go(fmt.Sprintf("zalloc-%d", i), func(self *sched.Thread) {
			for n := 0; n < ops; n++ {
				el := zone.Alloc(self)
				zone.Free(el)
			}
		}))
	}
	for _, th := range ths {
		th.Join()
	}
}

// injectContention stages one deterministic contended hold on a traced
// sleep lock: the holder keeps the write lock for a few milliseconds while
// a second thread waits on it. Workload contention depends on scheduling
// luck (on one CPU it can round to zero), so this guarantees the wait,
// hold, and blame site profiles each have at least one sample — the blame
// one attributing the waiter's delay to injectContention's holder.
func injectContention() {
	l := cxlock.NewWith(cxlock.Options{
		Sleep: true,
		Name:  "lockmon.smoke",
		Class: trace.NewClass("lockmon", "lockmon.smoke", trace.KindComplex),
	})
	held := make(chan struct{})
	holder := sched.Go("smoke-holder", func(self *sched.Thread) {
		l.Write(self)
		close(held)
		time.Sleep(5 * time.Millisecond)
		l.Done(self)
	})
	waiter := sched.Go("smoke-waiter", func(self *sched.Thread) {
		<-held
		l.Write(self)
		l.Done(self)
	})
	holder.Join()
	waiter.Join()
}

// injectDeadlock stages the Section 7.1 stall as a full lock cycle on a
// real vm.Map and waits for the watchdog to file the incident. Returns
// whether the capture happened. The two deadlocked threads are left
// parked — a true deadlock has no legal third-party resolution; in a real
// kernel this is where the watchdog's report precedes the reboot.
func injectDeadlock(mon *monitor.Monitor) bool {
	fmt.Println("lockmon: injecting vm_map_pageable-style lock cycle (map lock vs page-pool lock)")
	pool := vm.NewPool(8)
	vmap := vm.NewMap(pool)
	obj := vm.NewObject(pool, 4)
	boss := sched.New("boss")
	if err := vmap.Allocate(boss, 0, 4, obj, 0); err != nil {
		panic(err)
	}
	poolLock := cxlock.NewWith(cxlock.Options{
		Sleep: true,
		Name:  "vm.page-pool",
		Class: trace.NewClass("vm", "vm.page-pool", trace.KindComplex),
	})
	tr := mon.Tracker()
	tr.Name(vmap.DebugLock(), "vm.map")
	tr.Name(poolLock, "vm.page-pool")

	var firstHolds sync.WaitGroup
	firstHolds.Add(2)
	gate := make(chan struct{})
	sched.Go("vm_map_pageable", func(self *sched.Thread) {
		vmap.DebugLock().Read(self) // the outstanding read hold of Section 7.1
		firstHolds.Done()
		<-gate
		poolLock.Write(self) // "waits for free memory": needs the page pool
		poolLock.Done(self)
		vmap.DebugLock().Done(self)
	})
	sched.Go("pageout", func(self *sched.Thread) {
		poolLock.Write(self) // owns the page pool it is refilling
		firstHolds.Done()
		<-gate
		vmap.DebugLock().Write(self) // reclaim needs the map write lock
		vmap.DebugLock().Done(self)
		poolLock.Done(self)
	})
	firstHolds.Wait()
	close(gate)

	deadline := time.Now().Add(15 * time.Second)
	for mon.IncidentCount(monitor.KindDeadlock) == 0 {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "lockmon: no incident after 15s; tracker state:\n%s\n",
				tr.Snapshot())
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, in := range mon.Incidents().Snapshot() {
		if in.Kind == monitor.KindDeadlock {
			fmt.Println("lockmon: watchdog captured the deadlock:")
			for _, line := range strings.Split(strings.TrimRight(in.String(), "\n"), "\n") {
				fmt.Println("  " + line)
			}
			return true
		}
	}
	return false
}

// smokeCheck probes every endpoint and asserts each serves meaningful
// content; with injected set it also requires the incident log to name the
// cycle and carry a flight-recorder tail.
func smokeCheck(base string, injected bool) error {
	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", fmt.Errorf("GET %s: read: %w", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			return "", fmt.Errorf("GET %s: empty body", path)
		}
		return string(body), nil
	}
	checks := []struct {
		path string
		want []string
	}{
		{"/debug/machlock/", []string{"machlock monitor"}},
		{"/debug/machlock/profiles", []string{"contention profile", "vm.map"}},
		{"/debug/machlock/profiles?format=csv", []string{"pkg,name,kind", "vm.map"}},
		{"/debug/machlock/metrics", []string{
			"# TYPE machlock_acquisitions_total counter",
			"machlock_acquisitions_total{",
			"machlock_live_objects{",
			"machlock_monitor_up 1",
			"machlock_monitor_ticks_total",
		}},
		{"/debug/machlock/waitgraph", []string{"digraph waitfor"}},
		{"/debug/machlock/incidents", []string{"incidents:"}},
		{"/debug/machlock/ring", []string{"acquire"}},
	}
	if injected {
		checks[5].want = append(checks[5].want,
			"[deadlock]", "vm.map", "vm.page-pool", "vm_map_pageable", "pageout", "ring tail")
	}
	for _, c := range checks {
		body, err := get(c.path)
		if err != nil {
			return err
		}
		for _, want := range c.want {
			if !strings.Contains(body, want) {
				return fmt.Errorf("GET %s: missing %q in:\n%s", c.path, want, body)
			}
		}
	}
	return nil
}

// smokeArtifacts scrapes the profiler endpoints and validates the formats
// structurally — the pprof body must decode as a profile.proto with the
// wait sample types and real samples behind it, the timeline as Chrome
// trace-event JSON with populated traceEvents. Non-empty output paths get
// the raw bytes (CI uploads them as artifacts).
func smokeArtifacts(base, pprofOut, timelineOut string) error {
	fetch := func(path string) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	save := func(path string, data []byte) error {
		if path == "" {
			return nil
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("lockmon: wrote %s (%d bytes)\n", path, len(data))
		return nil
	}

	raw, err := fetch("/debug/machlock/pprof/waits")
	if err != nil {
		return err
	}
	prof, err := trace.ParsePprof(raw)
	if err != nil {
		return fmt.Errorf("pprof/waits: %w", err)
	}
	if len(prof.SampleTypes) != 2 || prof.SampleTypes[0] != "contentions/count" {
		return fmt.Errorf("pprof/waits: unexpected sample types %v", prof.SampleTypes)
	}
	if len(prof.Samples) == 0 {
		return fmt.Errorf("pprof/waits: no samples after contended workloads")
	}
	if err := save(pprofOut, raw); err != nil {
		return err
	}

	// The blame profile must attribute the staged contention to its holder:
	// the waiter's delay keyed by injectContention's acquisition stack.
	raw, err = fetch("/debug/machlock/pprof/blame")
	if err != nil {
		return err
	}
	blame, err := trace.ParsePprof(raw)
	if err != nil {
		return fmt.Errorf("pprof/blame: %w", err)
	}
	if blame.FindSample("injectContention") == nil {
		return fmt.Errorf("pprof/blame: no sample names the injected holder (samples: %d)", len(blame.Samples))
	}

	raw, err = fetch("/debug/machlock/timeline")
	if err != nil {
		return err
	}
	var tl struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tl); err != nil {
		return fmt.Errorf("timeline: invalid JSON: %w", err)
	}
	if len(tl.TraceEvents) == 0 {
		return fmt.Errorf("timeline: no trace events in the flight recorder")
	}
	return save(timelineOut, raw)
}
