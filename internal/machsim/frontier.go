package machsim

// This file defines the machlock-simfrontier/v1 schema: a checkpoint of an
// in-progress parallel exploration. The frontier is the ordered list of
// unexplored schedule prefixes (plus, per prefix, its preemption spend and
// POR sleep set); writing it after a budgeted wave and reading it back next
// run resumes the search exactly where it stopped instead of re-exploring
// from the root. Same Validate/Read/Write shape as internal/lockgraph.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FrontierSchema is the format identifier carried in every frontier file.
const FrontierSchema = "machlock-simfrontier/v1"

// FrontierBranch is one unexplored schedule prefix.
type FrontierBranch struct {
	// Prefix is the decision-token sequence reaching the branch point,
	// including the alternative taken there (empty for the root).
	Prefix []string `json:"prefix"`
	// Preempts is the preemption budget already spent by the prefix.
	Preempts int `json:"preempts"`
	// Sleep is the POR sleep set of the state the prefix reaches: thread
	// indices whose pending step a sibling exploration already covers.
	Sleep []int `json:"sleep,omitempty"`
}

// Frontier is one checkpoint of one scenario's bounded exploration. The
// configuration fields pin the search parameters: resuming under different
// parameters would silently change what "Exhausted" means, so
// ExploreParallel refuses mismatched checkpoints.
type Frontier struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"` // label, e.g. "scenarios/pageable"

	Preemptions     int    `json:"preemptions"`
	Reduction       string `json:"reduction"` // "none", "sleep"
	MaxSteps        int    `json:"max_steps"`
	FaultTries      bool   `json:"fault_tries,omitempty"`
	SpuriousWakeups bool   `json:"spurious_wakeups,omitempty"`

	// Cumulative progress across every resumed session.
	Wave         int   `json:"wave"`
	Runs         int   `json:"runs"`
	Steps        int64 `json:"steps"`
	Inconclusive int   `json:"inconclusive"`
	Pruned       int   `json:"pruned"`

	// Done marks an exhausted search: the frontier emptied, nothing left
	// to resume.
	Done bool `json:"done"`

	Branches []FrontierBranch `json:"branches"`
}

// NewFrontier returns the root frontier for one scenario and search
// configuration: a single empty prefix, everything still to explore.
func NewFrontier(scenario string, cfg DFSConfig, opt Options) *Frontier {
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	return &Frontier{
		Schema:          FrontierSchema,
		Scenario:        scenario,
		Preemptions:     cfg.Preemptions,
		Reduction:       cfg.Reduction.String(),
		MaxSteps:        maxSteps,
		FaultTries:      opt.FaultTries,
		SpuriousWakeups: opt.SpuriousWakeups,
		Branches:        []FrontierBranch{{}},
	}
}

// Validate checks the frontier is well-formed: right schema, named
// scenario, parseable reduction, sane counts, branches within the
// preemption budget, and Done consistent with an empty frontier.
func (f *Frontier) Validate() error {
	if f == nil {
		return fmt.Errorf("frontier: nil frontier")
	}
	if f.Schema != FrontierSchema {
		return fmt.Errorf("frontier: schema %q, want %q", f.Schema, FrontierSchema)
	}
	if f.Scenario == "" {
		return fmt.Errorf("frontier: no scenario name")
	}
	if _, err := ParseReduction(f.Reduction); err != nil {
		return fmt.Errorf("frontier: %w", err)
	}
	if f.Preemptions < 0 || f.MaxSteps <= 0 {
		return fmt.Errorf("frontier: preemptions=%d max_steps=%d out of range",
			f.Preemptions, f.MaxSteps)
	}
	if f.Wave < 0 || f.Runs < 0 || f.Steps < 0 || f.Inconclusive < 0 || f.Pruned < 0 {
		return fmt.Errorf("frontier: negative progress counts")
	}
	if f.Done && len(f.Branches) > 0 {
		return fmt.Errorf("frontier: done but %d branches remain", len(f.Branches))
	}
	for i, br := range f.Branches {
		if br.Preempts < 0 || br.Preempts > f.Preemptions {
			return fmt.Errorf("frontier: branch %d spends %d preemptions of a budget of %d",
				i, br.Preempts, f.Preemptions)
		}
		for _, tok := range br.Prefix {
			if tok == "" {
				return fmt.Errorf("frontier: branch %d has an empty token", i)
			}
		}
		for _, u := range br.Sleep {
			if u < 0 || u >= maxThreads {
				return fmt.Errorf("frontier: branch %d sleeps thread %d (out of range)", i, u)
			}
		}
	}
	return nil
}

// WriteFrontier renders the frontier as indented JSON.
func WriteFrontier(w io.Writer, f *Frontier) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("frontier: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFrontierFile writes the frontier to path ("-" for stdout),
// validating first.
func WriteFrontierFile(path string, f *Frontier) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if path == "-" {
		return WriteFrontier(os.Stdout, f)
	}
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("frontier: %w", err)
	}
	if err := WriteFrontier(fh, f); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// ReadFrontier parses and validates a frontier.
func ReadFrontier(r io.Reader) (*Frontier, error) {
	var f Frontier
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("frontier: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadFrontierFile parses and validates the frontier at path.
func ReadFrontierFile(path string) (*Frontier, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	f, err := ReadFrontier(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
