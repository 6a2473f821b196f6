// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result carrying
// (a) the regenerated rows/series, (b) a text rendering in the paper's
// layout, and (c) shape checks comparing the measurement to the paper's
// reported values — who wins, by roughly what factor, where the
// crossovers fall.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/ecosys"
	"repro/internal/par"
)

// Check is one paper-vs-measured comparison.
type Check struct {
	Name     string
	Paper    string // what the paper reports
	Measured string // what this run measured
	OK       bool   // whether the shape holds
}

func (c Check) String() string {
	mark := "ok  "
	if !c.OK {
		mark = "FAIL"
	}
	return fmt.Sprintf("[%s] %-46s paper: %-28s measured: %s", mark, c.Name, c.Paper, c.Measured)
}

// Experiment is the common shape of every driver's output.
type Experiment struct {
	ID     string // "Table 2", "Figure 5", ...
	Title  string
	Body   string // the regenerated table/figure in text form
	Checks []Check
}

// OK reports whether every check passed.
func (e *Experiment) OK() bool {
	for _, c := range e.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (e *Experiment) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n%s\n", e.ID, e.Title, e.Body)
	for _, c := range e.Checks {
		fmt.Fprintln(&sb, c)
	}
	return sb.String()
}

// Suite shares the expensive substrate (a full collection run and an
// ecosystem snapshot) between experiments.
type Suite struct {
	Seed int64

	once  sync.Once
	study *core.Study
	res   *core.Result
	eco   *ecosys.Ecosystem
	err   error
}

// NewSuite creates a lazy suite; the collection run happens on first use.
func NewSuite(seed int64) *Suite { return &Suite{Seed: seed} }

// materialize runs the study and generates the ecosystem once. The study
// keeps its survivor log and vault resident (no SpillDir or VaultDir).
func (s *Suite) materialize() error {
	s.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Seed = s.Seed
		study, err := core.NewStudy(cfg)
		if err != nil {
			s.err = err
			return
		}
		res, err := study.Run()
		if err != nil {
			s.err = err
			return
		}
		ecoCfg := ecosys.DefaultConfig()
		ecoCfg.Seed = s.Seed + 1000
		s.study, s.res = study, res
		s.eco = ecosys.Generate(ecoCfg)
	})
	return s.err
}

// Collection returns the shared study and its result.
func (s *Suite) Collection() (*core.Study, *core.Result, error) {
	if err := s.materialize(); err != nil {
		return nil, nil, err
	}
	return s.study, s.res, nil
}

// Ecosystem returns the shared ecosystem snapshot.
func (s *Suite) Ecosystem() (*ecosys.Ecosystem, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	return s.eco, nil
}

// All runs every experiment and returns them in the paper's order. The
// drivers only read the shared substrate (each sorts and aggregates into
// locals), so once it is materialized they run concurrently under
// par.MapErr; the ordered merge keeps the output identical to a
// sequential pass regardless of worker count.
func (s *Suite) All() ([]*Experiment, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	runs := []func() (*Experiment, error){
		s.Table1, s.Table2, s.Table3,
		s.Figure3, s.Figure4, s.Figure5, s.Figure6, s.Figure7,
		s.Table4, s.Figure8, s.Figure9,
		s.Regression, s.Economics,
		s.Table5, s.Table6,
	}
	out, err := par.MapErr(s.Seed, runs,
		func(i int, run func() (*Experiment, error), _ *rand.Rand) (*Experiment, error) {
			return run()
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// check builds a Check.
func check(name, paper, measured string, ok bool) Check {
	return Check{Name: name, Paper: paper, Measured: measured, OK: ok}
}
