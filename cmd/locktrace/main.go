// Command locktrace demonstrates the unified lock/refcount observability
// layer end to end: it enables tracing, drives concurrent workloads
// through the vm, ipc, and zalloc subsystems, and prints the ranked
// "hottest locks" contention profile followed by the tail of the
// flight-recorder event trace — the report Appendix A.1 of the paper says
// the statistics-gathering lock variants exist to produce.
//
// Usage:
//
//	locktrace [-threads N] [-ops N] [-format text|csv|vars] [-events N]
//	          [-pprof FILE [-pprof-kind waits|holds|blame]] [-timeline FILE]
//	          [-url http://host:port]
//
// With -pprof and/or -timeline the tool also exports profiler artifacts:
// a gzipped pprof profile.proto (feed it to go tool pprof) and the flight
// recorder as Chrome trace-event JSON (load into ui.perfetto.dev). By
// default they come from the in-process run; with -url they are fetched
// from a running monitor's debug endpoints instead, and no workload runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"machlock/internal/core/splock"
	"machlock/internal/ipc"
	"machlock/internal/sched"
	"machlock/internal/trace"
	"machlock/internal/vm"
	"machlock/internal/zalloc"
)

func main() {
	threads := flag.Int("threads", 8, "concurrent threads per workload")
	ops := flag.Int("ops", 2000, "operations per thread")
	format := flag.String("format", "text", "profile output: text, csv, or vars")
	events := flag.Int("events", 20, "flight-recorder events to dump (0 disables)")
	pprofOut := flag.String("pprof", "", "write a pprof profile (gzipped profile.proto) to this file")
	pprofKind := flag.String("pprof-kind", "waits", "which site profile -pprof exports: waits, holds, or blame")
	timelineOut := flag.String("timeline", "", "write the flight recorder as Chrome trace-event JSON to this file")
	baseURL := flag.String("url", "", "fetch -pprof/-timeline from a running monitor at this base URL instead of running workloads")
	flag.Parse()

	var kind trace.SiteKind
	switch *pprofKind {
	case "waits":
		kind = trace.SiteWaits
	case "holds":
		kind = trace.SiteHolds
	case "blame":
		kind = trace.SiteBlame
	default:
		fmt.Fprintf(os.Stderr, "locktrace: unknown -pprof-kind %q\n", *pprofKind)
		os.Exit(2)
	}

	if *baseURL != "" {
		// Remote mode: pull the artifacts from a live monitor and exit.
		if *pprofOut == "" && *timelineOut == "" {
			fmt.Fprintln(os.Stderr, "locktrace: -url requires -pprof and/or -timeline")
			os.Exit(2)
		}
		if *pprofOut != "" {
			fetch(*baseURL+"/debug/machlock/pprof/"+*pprofKind, *pprofOut)
		}
		if *timelineOut != "" {
			fetch(*baseURL+"/debug/machlock/timeline", *timelineOut)
		}
		return
	}

	trace.Enable()
	runVM(*threads, *ops)
	runIPC(*threads, *ops)
	runZalloc(*threads, *ops)
	runSpin(*threads, *ops)
	trace.Disable()

	if *pprofOut != "" {
		export(*pprofOut, func(w io.Writer) error { return trace.WritePprof(w, kind) })
	}
	if *timelineOut != "" {
		export(*timelineOut, func(w io.Writer) error { return trace.WriteTimeline(w, trace.Events(0)) })
	}

	ranked := trace.Ranked()
	var err error
	switch *format {
	case "text":
		err = trace.WriteText(os.Stdout, ranked)
	case "csv":
		err = trace.WriteCSV(os.Stdout, ranked)
	case "vars":
		err = trace.WriteVars(os.Stdout, ranked)
	default:
		fmt.Fprintf(os.Stderr, "locktrace: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktrace: %v\n", err)
		os.Exit(1)
	}

	if *events > 0 {
		evs := trace.Events(*events)
		fmt.Printf("\nflight recorder: last %d of the retained events\n", len(evs))
		if err := trace.WriteEvents(os.Stdout, evs); err != nil {
			fmt.Fprintf(os.Stderr, "locktrace: %v\n", err)
			os.Exit(1)
		}
	}
}

// export writes one artifact to path via the given writer.
func export(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktrace: %v\n", err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktrace: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "locktrace: wrote %s\n", path)
}

// fetch downloads one monitor debug endpoint to path.
func fetch(url, path string) {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktrace: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "locktrace: GET %s: %s\n", url, resp.Status)
		os.Exit(1)
	}
	export(path, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	})
}

// runVM faults pages of a shared map from many threads: contention on the
// map's complex lock (read-mode faults), the object's simple lock, and
// reference traffic as each fault takes and drops object references.
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

// runIPC hammers a shared name space and a shared port: translations
// clone and release port references under the space lock; sends and
// receives contend on the port's object lock.
func runIPC(threads, ops int) {
	space := ipc.NewSpace()
	port := ipc.NewPort("locktrace")
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
					if err := p.SendFrom(self, msg); err != nil {
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

// runZalloc cycles elements through a small zone from many threads,
// contending on the zone's simple lock and exercising the blocking
// allocate path when the zone runs dry.
func runZalloc(threads, ops int) {
	zone := zalloc.NewZone[int]("locktrace", threads*2, nil)
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

// runSpin drives a bare classed spin lock, so the report also shows the
// raw splock layer next to the subsystems built on it.
func runSpin(threads, ops int) {
	l := splock.NewWith(splock.Opts{Class: trace.NewClass("splock", "locktrace.spin", trace.KindSpin)})
	var ths []*sched.Thread
	for i := 0; i < threads; i++ {
		ths = append(ths, sched.Go(fmt.Sprintf("spin-%d", i), func(self *sched.Thread) {
			for n := 0; n < ops; n++ {
				l.Lock()
				l.Unlock()
			}
		}))
	}
	for _, th := range ths {
		th.Join()
	}
}
