package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
)

func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	exps, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, e := range exps {
		sb.WriteString(e.String())
	}
	return sb.String()
}

// TestAllSeedEquivalence asserts the determinism-under-parallelism
// contract on the experiment drivers: for several seeds, the rendering
// of every table and figure is byte-identical whether the fifteen
// drivers run sequentially or concurrently. The substrate is
// materialized once per seed (its own parallel equivalence is covered
// by the ecosys and core seed-equivalence tests), so the repeated All
// calls here exercise only the driver fan-out.
func TestAllSeedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite materialization; skipped in -short mode")
	}
	defer par.SetWorkers(0)
	for _, seed := range []int64{9, 101, 20170301} {
		s := NewSuite(seed)
		par.SetWorkers(1)
		ref := renderAll(t, s)
		for _, w := range []int{2, 8} {
			par.SetWorkers(w)
			if got := renderAll(t, s); got != ref {
				t.Fatalf("seed %d: workers=%d rendering differs from sequential run", seed, w)
			}
		}
	}
}

// TestAllSeedEquivalenceColdStart repeats the check for one seed with a
// fresh suite materialized entirely under the parallel setting, so the
// sharded study run and ecosystem generation feed the drivers too.
func TestAllSeedEquivalenceColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite materialization; skipped in -short mode")
	}
	defer par.SetWorkers(0)
	const seed = 9
	par.SetWorkers(1)
	ref := renderAll(t, NewSuite(seed))
	par.SetWorkers(8)
	if got := renderAll(t, NewSuite(seed)); got != ref {
		t.Fatal("workers=8 cold-start rendering differs from sequential run")
	}
}

// TestSuiteStreamingMatchesMaterialized keeps the materialized study
// run as the suite's oracle: a suite built from a Streaming=false study
// (sharing NewSuite's ecosystem, which the drivers only read) must
// render every table and figure byte-identically to NewSuite, which runs
// the study streaming.
func TestSuiteStreamingMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite materialization; skipped in -short mode")
	}
	for _, seed := range []int64{9, 101, 20160604} {
		streaming := NewSuite(seed)
		got := renderAll(t, streaming)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		study, err := core.NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := study.Run()
		if err != nil {
			t.Fatal(err)
		}
		oracle := &Suite{Seed: seed, study: study, res: res, eco: streaming.eco}
		oracle.once.Do(func() {}) // the substrate is already loaded
		if want := renderAll(t, oracle); got != want {
			t.Fatalf("seed %d: streaming suite rendering differs from the materialized oracle", seed)
		}
	}
}
