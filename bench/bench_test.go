package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testSeconds keeps the whole file under tier-1's five-second budget.
const testSeconds = 0.3

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func emitted(r *runResult) []string {
	out := make([]string, len(r.Metrics))
	for i, m := range r.Metrics {
		out[i] = m.Name
	}
	return out
}

// Every workload runs with all its checks on and fails nothing.
func TestWorkloadsRunCorrect(t *testing.T) {
	for _, wl := range workloads {
		res, err := runWorkload(wl, 1, testSeconds, nil, callers(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", wl.name, res.Attempted, res.Failed, res.Failures)
		}
		if got, want := strings.Join(emitted(res), " "), strings.Join(names(endToEnd), " "); got != want {
			t.Errorf("%s emitted %s, want %s", wl.name, got, want)
		}
		for _, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never zero", wl.name, m.Name, m.Value)
			}
		}
	}
}

// A traced run emits exactly the per-layer metrics and writes the span file.
func TestTracedRun(t *testing.T) {
	t.Chdir(t.TempDir())
	rungs, err := runLadder(callers(), testSeconds, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := findWorkload("kernel_write")
	res, err := runWorkload(wl, 1, testSeconds, rungs, callers(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range res.Failures {
		// The ledger's sum check needs full-length batches to be steady.
		if !strings.HasPrefix(msg, "ledger leaves") {
			t.Errorf("failure: %s", msg)
		}
	}
	want := map[string]bool{}
	for _, n := range names(perLayer()) {
		want[n] = true
	}
	for _, n := range emitted(res) {
		if !want[n] {
			t.Errorf("emitted %s, which is not a per-layer metric", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("per-layer metric %s was not emitted", n)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "trace-kernel_write.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(file.Spans), err)
	}
	for _, s := range file.Spans[:min(len(file.Spans), 100)] {
		if s.EndNs < s.StartNs || s.Ops == 0 || !s.OK {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// A kernel world handed RPC ops meets an expectation it cannot satisfy: the
// command must count the failures, say so in its result line, and exit
// non-zero.
func TestWrongExpectationExitsNonZero(t *testing.T) {
	workloads = append(workloads, workload{
		name: "test_wrong", kernel: true, batch: 32, mix: []mixEntry{{opLookup, 100}},
	})
	defer func() { workloads = workloads[:len(workloads)-1] }()

	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "test_wrong", "--seed", "3", "--seconds", "0.05", "--trace", "0"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with failing operations\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last wireResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed == 0 || last.Attempted == 0 {
		t.Errorf("result %+v: want correct=false and failures counted", last)
	}
}

// A reply outside what the caller expects is a failure.
func TestCallerChecksReplies(t *testing.T) {
	wl, _ := findWorkload("rpc_small")
	fails := &failLog{}
	base := takeCensus()
	rw, err := setupRPC(wl, 1, 1, fails)
	if err != nil {
		t.Fatal(err)
	}
	c := rw.callers[0]
	if !c.call(op{kind: opChurn}) || !c.call(op{kind: opLookupDead, arg: deadName}) || fails.n.Load() != 0 {
		t.Errorf("correct replies were counted as failures: %v", fails.msgs)
	}
	c.maxNames = 0 // a wrong expectation
	if c.call(op{kind: opChurn}) || c.call(op{kind: opLookup, arg: deadName}) || fails.n.Load() != 2 {
		t.Errorf("wrong replies passed: %d failures", fails.n.Load())
	}
	rw.finish(base)
	if fails.n.Load() != 2 {
		t.Errorf("end-of-run checks failed: %v", fails.msgs)
	}
}

func TestTapesFollowSeed(t *testing.T) {
	sh := shape{tasks: 32, ports: 16, pages: 64}
	for _, wl := range workloads {
		a := tapeBytes(makeTape(wl, sh, 7, 0))
		if !bytes.Equal(a, tapeBytes(makeTape(wl, sh, 7, 0))) {
			t.Errorf("%s: same seed, different tapes", wl.name)
		}
		if bytes.Equal(a, tapeBytes(makeTape(wl, sh, 8, 0))) {
			t.Errorf("%s: different seeds, same tape", wl.name)
		}
		if bytes.Equal(a, tapeBytes(makeTape(wl, sh, 7, 1))) {
			t.Errorf("%s: two callers share a tape", wl.name)
		}
		if tapeLen%wl.batch != 0 {
			t.Errorf("%s: batch %d does not divide the tape", wl.name, wl.batch)
		}
	}
	// The mix is what the workload table says, to within sampling error.
	small, _ := findWorkload("rpc_small")
	count := map[opKind]int{}
	for _, o := range makeTape(small, sh, 1, 0) {
		count[o.kind]++
	}
	if share := float64(count[opLookup]) / tapeLen; share < 0.93 || share > 0.95 {
		t.Errorf("rpc_small: %.3f lookups, want 0.94", share)
	}
	if count[opLookupDead] == 0 || count[opChurn] == 0 {
		t.Errorf("rpc_small: mix %v lacks a kind", count)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing")
	}
	if got := (phase{samples: s, batch: 10}).opMicros(0.5); got != 0.005 {
		t.Errorf("opMicros = %v, want 0.005", got)
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
}

func TestVerdictAndCompare(t *testing.T) {
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.07}
	lower := specMetric{Name: "p50_us", Better: "lower", Bound: 0.07}
	for _, c := range []struct {
		m    specMetric
		a, b float64
		want string
	}{
		{higher, 100, 94, "ok"}, {higher, 100, 92, "regressed"}, {higher, 100, 108, "improved"},
		{lower, 100, 106, "ok"}, {lower, 100, 108, "regressed"}, {lower, 100, 92, "improved"},
		{lower, 0, 1, "no-base"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}

	sp := &spec{EndToEnd: []specMetric{higher, lower}}
	set := func(w int, ops, p50 float64) *resultSet {
		s := newResultSet(w, 1, 1, false)
		s.Workloads["rpc_small"] = wireResult{Correct: true, Attempted: 1, Metrics: map[string]wireValue{
			"ops_per_s": {Value: ops, Unit: "1/s"}, "p50_us": {Value: p50, Unit: "us"},
		}}
		return s
	}
	var out bytes.Buffer
	if code, err := compareSets(sp, set(2, 100, 100), set(2, 101, 99), &out); code != 0 || err != nil {
		t.Errorf("two agreeing sets: code %d, err %v", code, err)
	}
	if strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "improved") {
		t.Errorf("agreeing sets printed a verdict:\n%s", out.String())
	}
	out.Reset()
	if code, _ := compareSets(sp, set(2, 100, 100), set(2, 80, 100), &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 20%% drop: code %d\n%s", code, out.String())
	}
	if code, err := compareSets(sp, set(2, 100, 100), set(4, 100, 100), &out); code != 2 || err == nil {
		t.Errorf("different W: code %d, err %v", code, err)
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "x", "--trace", "1", "--seed", "2"}, "trace")
	if strings.Join(got, " ") != "--workload x --trace=1 --seed 2" {
		t.Errorf("got %v", got)
	}
	got = boolArgs([]string{"-trace", "-compare", "a", "b"}, "trace")
	if strings.Join(got, " ") != "-trace -compare a b" {
		t.Errorf("got %v", got)
	}
}

// The metric tables and BENCHMARK.json name exactly the same metrics, with
// the same units: none printed but undeclared, none declared but missing.
func TestSpecMatchesTables(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, declared []specMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d defined", kind, len(declared), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range declared {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad name %q", kind, m.Name)
			}
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared with unit %q, defined with %q (defined: %v)", kind, m.Name, m.Unit, u, ok)
			}
			delete(units, m.Name)
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s better=%q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v", kind, m.Name, m.Bound)
			}
		}
		for n := range units {
			t.Errorf("%s: %s is defined but not declared", kind, n)
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer(), false)

	if len(sp.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d declared as %s, defined as %s", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", sp.RunSeconds, defaultSeconds)
	}
}
