// Command bench is the repository's benchmark: four closed-loop workloads
// against the code as shipped, every reply checked, every metric printed by
// name and unit. See README.md in this directory.
//
//	go run ./bench                         all four workloads, end-to-end metrics
//	go run ./bench -trace                  per-layer metrics, layer ladder, span files
//	go run ./bench -workload rpc_small     one workload; the last line is its JSON result
//	go run ./bench -compare a.json b.json  apply BENCHMARK.json's bounds to two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// boolArgs rewrites "-trace 0|1" (how the driver passes it) into the
// "-trace=0|1" form the flag package accepts for a boolean.
func boolArgs(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload and print its JSON result as the last line (default: all four)")
		seed    = fs.Int64("seed", 1, "seed of the generated op tapes")
		seconds = fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
		traced  = fs.Bool("trace", false, "emit the per-layer metrics: traced repeat, layer ladder, span files")
		compare = fs.Bool("compare", false, "compare two result sets (arguments: a.json b.json) under BENCHMARK.json's bounds")
		out     = fs.String("out", filepath.Join(outDir, "result.json"), "where a run of all workloads writes its result set")
	)
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	w := callers()
	runtime.GOMAXPROCS(w)
	fmt.Fprintf(stdout, "bench: closed loop, W=%d callers on GOMAXPROCS=%d of %d processors; "+
		"RPC workloads cross the host's loopback interface, not a link\n", w, w, runtime.NumCPU())

	todo := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{wl}
	}

	var rungs *ladderResult
	if *traced {
		var err error
		if rungs, err = runLadder(w, *seconds, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: ladder: %v\n", err)
			return 1
		}
	}
	set := newResultSet(w, *seed, *seconds, *traced)
	failed := false
	for _, wl := range todo {
		res, err := runWorkload(wl, *seed, *seconds, rungs, w, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		printResult(stdout, res)
		set.Workloads[wl.name] = res.wire()
		failed = failed || res.Failed > 0
	}

	if *name == "" {
		set.Commit = gitCommit()
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "bench: result set written to %s\n", *out)
	} else {
		// The driver's contract: one JSON object, last line of stdout.
		line, err := json.Marshal(set.Workloads[*name])
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return 1
	}
	return 0
}

func printResult(w io.Writer, r *runResult) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-14s %-34s %16.4f %s\n", r.Workload, m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-14s attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	for _, msg := range r.Failures {
		fmt.Fprintf(w, "%-14s FAILED: %s\n", r.Workload, msg)
	}
}

// wireValue and wireResult are the JSON forms the driver's contract fixes.
type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

func (r *runResult) wire() wireResult {
	out := wireResult{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]wireValue{},
	}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = wireValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// resultSet is what a run of all workloads writes and -compare reads.
type resultSet struct {
	W          int                   `json:"w"`
	NumCPU     int                   `json:"nproc"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	GoVersion  string                `json:"go_version"`
	Seed       int64                 `json:"seed"`
	Seconds    float64               `json:"seconds"`
	Traced     bool                  `json:"traced"`
	Commit     string                `json:"git_commit"`
	Workloads  map[string]wireResult `json:"workloads"`
}

func newResultSet(w int, seed int64, seconds float64, traced bool) *resultSet {
	return &resultSet{
		W: w, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Traced: traced,
		Workloads: map[string]wireResult{},
	}
}

// gitCommit names the measured commit; a tree that is not a git checkout
// (the driver's copy) is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
