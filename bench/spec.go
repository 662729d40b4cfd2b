package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the contract the driver and -compare read; the benchmark
// runs from the repository root, where it lives.
const specFile = "BENCHMARK.json"

// metric is one named measurement as printed and as written to result files.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metricDef names a metric the benchmark emits and fixes its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system would see; every workload
// reports all of them, with tracing as shipped (on inside machd.Start, off
// for kernel_*). BENCHMARK.json carries their direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"scale_ratio", "ratio"},
}

// The six kernel lock classes whose counters the traced repeat reads.
var lockClasses = []string{"ipc.space", "ipc.port", "vm.map", "vm.object", "kern.task", "kern.thread"}

// The machd operation spans (trace.OpProfiles names are "op."+kind).
var opKinds = []string{"lookup", "port-churn", "task-spawn", "vm-touch"}

// ladderDefs is the layer ladder, bottom rung first. Layer names are the
// module names; see ladder.go for what each rung runs.
var ladderDefs = []metricDef{
	{"splock.pair_ns", "ns"},
	{"splock.pair_mt_ns", "ns"},
	{"cxlock.read_ns", "ns"},
	{"cxlock.write_ns", "ns"},
	{"cxlock.read_biased_ns", "ns"},
	{"cxlock.mixed_mt_ns", "ns"},
	{"refcount.atomic_pair_ns", "ns"},
	{"refcount.locked_pair_ns", "ns"},
	{"object.lock_ref_ns", "ns"},
	{"zalloc.pair_ns", "ns"},
	{"ipc.translate_ns", "ns"},
	{"kern.translate_port_ns", "ns"},
	{"vm.fault_resident_ns", "ns"},
	{"ipc.insert_remove_ns", "ns"},
	{"vm.allocate_ns", "ns"},
	{"vm.fault_shortage_us", "us"},
	{"kern.task_cycle_us", "us"},
	{"sched.handoff_us", "us"},
	{"ipc.send_receive_ns", "ns"},
	{"ipc.call_us", "us"},
	{"mig.call_us", "us"},
	{"mig.self_us", "us"},
	{"netmsg.pipe_call_us", "us"},
	{"netmsg.tcp_call_us", "us"},
	{"netmsg.self_us", "us"},
	{"socket.rtt_us", "us"},
	{"socket.self_us", "us"},
	{"machd.inproc_lookup_us", "us"},
	{"machd.inproc_churn_us", "us"},
	{"machd.inproc_spawn_us", "us"},
	{"machd.inproc_touch_us", "us"},
	{"machd.handler_lookup_us", "us"},
	{"machd.handler_churn_us", "us"},
	{"machd.handler_spawn_us", "us"},
	{"machd.handler_touch_us", "us"},
	{"machd.tcp_lookup_us", "us"},
	{"ledger.sum_us", "us"},
	{"ledger.residual_ratio", "ratio"},
}

// perLayer is every metric a -trace run emits: the traced repeat's counters,
// then the ladder. fail_ratio and allocs_per_op are here, not among the
// end-to-end metrics, because a bounded metric may never read zero:
// fail_ratio always does, and kernel_read allocates nothing.
func perLayer() []metricDef {
	defs := []metricDef{
		{"fail_ratio", "ratio"},
		{"allocs_per_op", "count"},
		{"ops_per_s_1t", "1/s"},
		{"trace.slowdown_ratio", "ratio"},
		{"gen.call_overhead_ns", "ns"},
		{"netmsg.frames_per_op", "count"},
		{"vm.faults_per_op", "count"},
		{"vm.reclaims_per_op", "count"},
		{"proc.alloc_bytes_per_op", "B"},
		{"proc.gc_cycles", "count"},
		{"proc.gc_pause_ms", "ms"},
		{"proc.rss_peak_mb", "MB"},
	}
	for _, c := range lockClasses {
		defs = append(defs,
			metricDef{"lock." + c + ".acq_per_op", "count"},
			metricDef{"lock." + c + ".contention_ratio", "ratio"},
			metricDef{"lock." + c + ".wait_p99_ns", "ns"})
	}
	for _, k := range opKinds {
		defs = append(defs,
			metricDef{"op." + k + ".work_p50_ns", "ns"},
			metricDef{"op." + k + ".wait_p50_ns", "ns"})
	}
	return append(defs, ladderDefs...)
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
