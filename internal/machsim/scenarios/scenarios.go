// Package scenarios holds the multi-subsystem machsim scenarios: whole
// protocol slices from the paper — vm_map_pageable against the pageout
// daemon (Section 7.1), the interrupt-barrier exemption protocol
// (Section 7), and port/object shutdown against concurrent translation
// (Sections 9-10) — expressed as schedule-exploration scenarios.
//
// Every scenario comes in two flavours, following the harness's
// negative-control discipline: the PRE-FIX model plants the historical bug
// and the bounded search must re-find it (proving the search can see bugs
// of this shape), and the REAL protocol runs the repo's actual code and
// must exhaust its bounded schedule space clean. The registry lets tests
// and cmd/simfrontier enumerate both sets.
package scenarios

import (
	"machlock/internal/machsim"
)

// Named is one registered scenario with the exploration parameters its
// verdict is stated under.
type Named struct {
	Name     string
	Scenario machsim.Scenario
	// Preemptions is the CHESS preemption bound the verdict holds under.
	Preemptions int
	// Reduction is the POR mode the exhaustive runs use (the planted-bug
	// runs use it too; a reduction that hides a planted bug is unsound).
	Reduction machsim.Reduction
	// WantCheckers is empty for scenarios that must exhaust clean, and the
	// violated checker names the search must find for planted-bug models.
	WantCheckers []string
}

// All returns every registered scenario, planted-bug models first.
func All() []Named {
	return []Named{
		{
			Name:         "intbarrier-prefix",
			Scenario:     IntBarrierScenario(false),
			Preemptions:  1,
			Reduction:    machsim.ReduceSleep,
			WantCheckers: []string{"deadlock"},
		},
		{
			Name:         "pageable-prefix",
			Scenario:     PageableScenario(false),
			Preemptions:  1,
			Reduction:    machsim.ReduceSleep,
			WantCheckers: []string{"deadlock"},
		},
		{
			Name:         "portshutdown-prefix",
			Scenario:     PortShutdownScenario(false),
			Preemptions:  1,
			Reduction:    machsim.ReduceSleep,
			WantCheckers: []string{"panic", "ref-resurrect"},
		},
		{
			Name:        "intbarrier",
			Scenario:    IntBarrierScenario(true),
			Preemptions: 2,
			Reduction:   machsim.ReduceSleep,
		},
		{
			Name:        "pageable",
			Scenario:    PageableScenario(true),
			Preemptions: 2,
			Reduction:   machsim.ReduceSleep,
		},
		{
			Name:        "portshutdown",
			Scenario:    PortShutdownScenario(true),
			Preemptions: 2,
			Reduction:   machsim.ReduceSleep,
		},
	}
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (Named, bool) {
	for _, n := range All() {
		if n.Name == name {
			return n, true
		}
	}
	return Named{}, false
}
