// Command machbench runs the machlock experiment suite — one experiment
// per claim in the paper's text, as indexed in DESIGN.md — and prints the
// tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	machbench [-quick] [-list] [e1 e2 ... | all]
//
// With no experiment arguments every experiment runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"machlock/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run with reduced iteration counts")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: machbench [-quick] [-list] [experiment-ids...]\n\n")
		fmt.Fprintf(os.Stderr, "Reproduces the evaluation of \"Locking and Reference Counting in the\nMach Kernel\" (Black et al., ICPP 1991). Run with no arguments for the\nfull suite.\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := flag.Args()
	var runs []experiments.Experiment
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		runs = experiments.All()
	} else {
		for _, id := range ids {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "machbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			runs = append(runs, e)
		}
	}

	cfg := experiments.Config{Quick: *quick}
	fmt.Printf("machbench: %d experiment(s), quick=%v\n\n", len(runs), *quick)
	start := time.Now()
	for _, e := range runs {
		t0 := time.Now()
		res := e.Run(cfg)
		if _, err := res.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "machbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("machbench: done in %v\n", time.Since(start).Round(time.Millisecond))
}
