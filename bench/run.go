package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"machlock/internal/netmsg"
	"machlock/internal/trace"
)

// setupRounds worlds are built per run; setup_s is the median build time.
const setupRounds = 11

// Phase lengths as shares of -seconds. A plain run spends all of it
// measuring: one caller first (for scale_ratio), then W callers. A traced
// run splits it between the as-shipped reference, the one-caller phase and
// the traced repeat; the ladder follows.
const (
	warmupShare = 0.15 // not part of -seconds

	plainSingleShare = 0.35
	plainMultiShare  = 0.65

	tracedRefShare    = 0.20
	tracedSingleShare = 0.15
	tracedShare       = 0.40
)

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

// runResult is one workload's outcome.
type runResult struct {
	Workload  string
	Attempted int64
	Failed    int64
	Failures  []string
	Metrics   []metric
}

func (r *runResult) add(name string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v})
}

// stampUnits fills in units from the definitions and checks that exactly the
// defined metrics were produced.
func (r *runResult) stampUnits(defs []metricDef) error {
	units := map[string]string{}
	for _, d := range defs {
		units[d.name] = d.unit
	}
	seen := map[string]bool{}
	for i, m := range r.Metrics {
		u, ok := units[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is emitted but not defined", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s is emitted twice", m.Name)
		}
		seen[m.Name] = true
		r.Metrics[i].Unit = u
	}
	for _, d := range defs {
		if !seen[d.name] {
			return fmt.Errorf("metric %s is defined but was not emitted", d.name)
		}
	}
	return nil
}

// buildWorld sets the workload up setupRounds times, checking and tearing
// down all but the last, and returns that one with the median set-up time.
// Set-up is everything before warm-up: world build, machd.Start, dial, and
// tape generation.
func buildWorld(wl workload, seed int64, w int, fails *failLog, base census) (world, float64, error) {
	var times []float64
	for round := 1; ; round++ {
		t0 := time.Now()
		wd, err := setupWorld(wl, seed, w, fails)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if round == setupRounds {
			return wd, median(times), nil
		}
		wd.finish(base)
	}
}

// runWorkload measures one workload. A plain run (rungs nil) produces the
// end-to-end metrics; a traced run produces the per-layer ones, writes the
// span file, and reports the ladder it is handed: the ladder does not depend
// on the workload, so a run of all four measures it once.
func runWorkload(wl workload, seed int64, seconds float64, rungs *ladderResult, w int, log io.Writer) (*runResult, error) {
	traced := rungs != nil
	fails := &failLog{}
	base := takeCensus()
	wd, setupS, err := buildWorld(wl, seed, w, fails, base)
	if err != nil {
		return nil, err
	}
	lanes := newLanes(wd.workers())
	res := &runResult{Workload: wl.name}

	warm := runPhase(lanes, w, share(seconds, warmupShare), false)
	res.Attempted += warm.ops

	if traced {
		err = runTraced(res, wd, lanes, wl, seconds, w, log)
	} else {
		single := runPhase(lanes, 1, share(seconds, plainSingleShare), false)
		multi := runPhase(lanes, w, share(seconds, plainMultiShare), false)
		res.Attempted += single.ops + multi.ops
		res.add("setup_s", setupS)
		res.add("ops_per_s", multi.opsPerSec())
		res.add("p50_us", multi.opMicros(0.50))
		res.add("p99_us", multi.opMicros(0.99))
		res.add("cpu_us_per_op", multi.perOp(float64(multi.cpu.Nanoseconds())/1e3))
		res.add("scale_ratio", multi.opsPerSec()/single.opsPerSec())
		if multi.missed > 0 {
			fails.addf("%d batches were not sampled: sample buffer too small", multi.missed)
		}
		fmt.Fprintf(log, "%s: %d callers, %d ops in %.2fs; %d timed samples, %d beyond p99\n",
			wl.name, w, multi.ops, multi.wall.Seconds(), len(multi.samples), len(multi.samples)/100)
	}
	wd.finish(base)
	if err != nil {
		return nil, err
	}

	res.Failed = fails.n.Load()
	res.Failures = fails.msgs
	if traced {
		res.Metrics = append(res.Metrics, rungs.metrics...)
		res.Failed += rungs.fails.n.Load()
		res.Failures = append(res.Failures, rungs.fails.msgs...)
		res.add("proc.rss_peak_mb", rssPeakMB())
		// fail_ratio is complete only now that the end-of-run checks ran.
		res.add("fail_ratio", float64(res.Failed)/float64(res.Attempted))
		err = res.stampUnits(perLayer())
	} else {
		err = res.stampUnits(endToEnd)
	}
	return res, err
}

// runTraced is the traced repeat: an as-shipped reference phase, a
// one-caller phase, then the same load with a benchmark-side span per call
// and the lock classes' counters read before and after. For the kernel
// workloads the traced phase also switches the repo's tracing on, which is
// what trace.slowdown_ratio prices.
func runTraced(res *runResult, wd world, lanes []*lane, wl workload, seconds float64, w int, log io.Writer) error {
	ref := runPhase(lanes, w, share(seconds, tracedRefShare), false)
	single := runPhase(lanes, 1, share(seconds, tracedSingleShare), false)

	faults0, reclaims0, err := wd.counters()
	if err != nil {
		return err
	}
	frames0 := netmsg.GlobalStats()
	if wl.kernel {
		trace.Enable()
	}
	trace.ResetProfiles()
	tr := runPhase(lanes, w, share(seconds, tracedShare), true)
	profiles := trace.Ranked()
	ops := trace.OpProfiles()
	if wl.kernel {
		trace.Disable()
	}
	frames1 := netmsg.GlobalStats()
	faults1, reclaims1, err := wd.counters()
	if err != nil {
		return err
	}
	res.Attempted += ref.ops + single.ops + tr.ops

	res.add("allocs_per_op", ref.perOp(float64(ref.mallocs)))
	res.add("ops_per_s_1t", single.opsPerSec())
	res.add("trace.slowdown_ratio", ref.opsPerSec()/tr.opsPerSec())
	res.add("netmsg.frames_per_op", tr.perOp(float64(
		frames1.RequestsForwarded-frames0.RequestsForwarded+frames1.RepliesReturned-frames0.RepliesReturned)))
	res.add("vm.faults_per_op", tr.perOp(float64(faults1-faults0)))
	res.add("vm.reclaims_per_op", tr.perOp(float64(reclaims1-reclaims0)))
	res.add("proc.alloc_bytes_per_op", ref.perOp(float64(ref.bytes)))
	res.add("proc.gc_cycles", float64(ref.gcs))
	res.add("proc.gc_pause_ms", float64(ref.pauseNs)/1e6)

	byClass := map[string]trace.Profile{}
	for _, p := range profiles {
		byClass[p.Name] = p
	}
	for _, c := range lockClasses {
		p := byClass[c] // zero when the workload never touched the class
		res.add("lock."+c+".acq_per_op", tr.perOp(float64(p.Acquisitions)))
		res.add("lock."+c+".contention_ratio", p.ContentionRate)
		res.add("lock."+c+".wait_p99_ns", float64(p.P99WaitNs))
	}
	byOp := map[string]trace.OpProfile{}
	for _, p := range ops {
		if p.Pkg == "machd" {
			byOp[p.Name] = p
		}
	}
	for _, k := range opKinds {
		p := byOp["op."+k]
		res.add("op."+k+".work_p50_ns", float64(p.P50WorkNs))
		res.add("op."+k+".wait_p50_ns", float64(p.P50WaitNs))
	}

	// The harness's own cost per operation, on an empty op.
	nop := runPhase(newLanes([]worker{nopWorker{}}), 1, 100*time.Millisecond, false)
	res.add("gen.call_overhead_ns", float64(nop.wall.Nanoseconds())/float64(nop.ops))

	if err := writeSpans(wl.name, lanes[:w]); err != nil {
		return err
	}
	fmt.Fprintf(log, "%s: traced repeat %d ops in %.2fs against %d ops in %.2fs as shipped\n",
		wl.name, tr.ops, tr.wall.Seconds(), ref.ops, ref.wall.Seconds())
	return nil
}

// outDir receives span files and result sets; .gitignore names it.
const outDir = "bench/out"

// writeSpans writes the traced phase's spans, kept in memory until now.
func writeSpans(name string, lanes []*lane) error {
	var out struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}
	out.Workload = name
	for _, l := range lanes {
		out.Dropped += l.dropped
		out.Spans = append(out.Spans, l.spans...)
	}
	return writeJSON(filepath.Join(outDir, "trace-"+name+".json"), out)
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// callers is W: one caller per processor, up to four.
func callers() int {
	return min(runtime.NumCPU(), 4)
}
