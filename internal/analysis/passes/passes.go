// Package passes aggregates the machvet analyzers in their canonical
// order. The order matters only for deterministic output; diagnostics are
// position-sorted per package anyway.
package passes

import (
	"machlock/internal/analysis/framework"
	"machlock/internal/analysis/passes/atomicity"
	"machlock/internal/analysis/passes/holdblock"
	"machlock/internal/analysis/passes/lockorder"
	"machlock/internal/analysis/passes/refdiscipline"
	"machlock/internal/analysis/passes/sleepwake"
	"machlock/internal/analysis/passes/unlockpath"
)

// All returns the full machvet suite.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		holdblock.Analyzer,
		lockorder.Analyzer,
		unlockpath.Analyzer,
		refdiscipline.Analyzer,
		atomicity.Analyzer,
		sleepwake.Analyzer,
	}
}
