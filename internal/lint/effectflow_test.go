package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/cfg"
)

// effectParStub is the fixture stand-in for internal/par: same
// signatures as the real package (generic Map/MapErr, splitmix-style
// Rand) so shard-closure fixtures typecheck identically.
const effectParStub = `package par

import "math/rand"

func SubSeed(seed int64, index int) int64 {
	return seed + int64(index)*0x9e3779b9
}

func Rand(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, index)))
}

func Map[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	for i, item := range items {
		out[i] = fn(i, item, Rand(seed, i))
	}
	return out
}

func MapErr[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	for i, item := range items {
		r, err := fn(i, item, Rand(seed, i))
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func MapAt[T, R any](seed int64, base int, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	for i, item := range items {
		out[i] = fn(base+i, item, Rand(seed, base+i))
	}
	return out
}

func For(n int, do func(i int)) {
	for i := 0; i < n; i++ {
		do(i)
	}
}
`

// TestEffectAnalyzers covers the three analyzers built on the L4
// effect-inference layer: purepar's shard purity (with interprocedural
// blame chains), lockblock's no-blocking-under-lock rule, and
// globalmut's unsynchronized-package-state rule — each with true
// positives and the accepted idioms they must not flag.
func TestEffectAnalyzers(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		files    map[string]string
		want     []string
		count    int
	}{
		{
			name:     "purepar flags a clock read reached through a helper",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"
	"time"

	"repro/internal/par"
)

func stamp() int64 { return time.Now().UnixNano() }

func Run(seed int64, items []int) []int64 {
	return par.Map(seed, items, func(i int, it int, rng *rand.Rand) int64 {
		return stamp() + int64(it)
	})
}
`,
			},
			want: []string{
				"internal/shard/s.go:13: [purepar]",
				"carries ReadsClock",
				"shard.Run.func1 → shard.stamp → time.Now",
			},
			count: 1,
		},
		{
			name:     "purepar flags ambient randomness in a named shard function",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
)

func pick(i int, it int, rng *rand.Rand) int {
	return it * rand.Intn(3)
}

func Run(seed int64, items []int) []int {
	return par.Map(seed, items, pick)
}
`,
			},
			want: []string{
				"internal/shard/s.go:14: [purepar]",
				"carries AmbientRand",
				"shard.pick → rand.Intn",
			},
			count: 1,
		},
		{
			name:     "purepar flags a shard writing package-level state",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
)

var hits int

func Run(seed int64, items []int) []int {
	return par.Map(seed, items, func(i int, it int, rng *rand.Rand) int {
		hits++
		return it
	})
}
`,
			},
			want: []string{
				"internal/shard/s.go:12: [purepar]",
				"carries GlobalWrite",
				"write to shard.hits",
			},
			count: 1,
		},
		{
			name:     "purepar flags a clock read in a par.For index function",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"time"

	"repro/internal/par"
)

func Run(items []int) []int64 {
	out := make([]int64, len(items))
	par.For(len(items), func(i int) { out[i] = time.Now().UnixNano() + int64(items[i]) })
	return out
}
`,
			},
			want: []string{
				"internal/shard/s.go:11: [purepar]",
				"shard function passed to par.For carries ReadsClock",
			},
			count: 1,
		},
		{
			name:     "purepar flags package-level writes in a par.MapAt shard",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
)

var hits int

func Run(seed int64, base int, items []int) []int {
	return par.MapAt(seed, base, items, func(i int, it int, rng *rand.Rand) int {
		hits++
		return it
	})
}
`,
			},
			want: []string{
				"internal/shard/s.go:12: [purepar]",
				"shard function passed to par.MapAt carries GlobalWrite",
			},
			count: 1,
		},
		{
			name:     "purepar flags map-range order escaping a shard",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
)

func Keys(seed int64, ms []map[string]int) [][]string {
	return par.Map(seed, ms, func(i int, m map[string]int, rng *rand.Rand) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		return out
	})
}
`,
			},
			want: []string{
				"internal/shard/s.go:10: [purepar]",
				"carries MapRangeOrder",
			},
			count: 1,
		},
		{
			name:     "purepar accepts rng-derived work and sorted map iteration",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/shard/s.go": `package shard

import (
	"math/rand"
	"sort"

	"repro/internal/par"
)

func sample(rng *rand.Rand, n int) int { return rng.Intn(n) }

func Run(seed int64, ms []map[string]int) [][]string {
	return par.Map(seed, ms, func(i int, m map[string]int, rng *rand.Rand) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > 1 {
			keys = keys[:sample(rng, len(keys))+1]
		}
		return keys
	})
}
`,
			},
			count: 0,
		},
		{
			name:     "purepar treats the simclock seam as a blessed hole",
			analyzer: "purepar",
			files: map[string]string{
				"internal/par/par.go": effectParStub,
				"internal/simclock/clock.go": `package simclock

import "time"

// The fixture clock reads the wall clock so the seam mask, not the
// callee's purity, is what keeps the shard clean.
func Now() time.Time { return time.Now() }
`,
				"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
	"repro/internal/simclock"
)

func Run(seed int64, items []int) []int64 {
	return par.Map(seed, items, func(i int, it int, rng *rand.Rand) int64 {
		return simclock.Now().Unix() + int64(it)
	})
}
`,
			},
			count: 0,
		},
		{
			name:     "lockblock flags a conn write under a held mutex",
			analyzer: "lockblock",
			files: map[string]string{
				"internal/store/s.go": `package store

import (
	"net"
	"sync"
)

type Store struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *Store) Flush(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(b)
	return err
}
`,
			},
			want: []string{
				"internal/store/s.go:16: [lockblock]",
				"blocks on the network while store.Store.mu is held",
			},
			count: 1,
		},
		{
			name:     "lockblock follows a sleep through a callee summary",
			analyzer: "lockblock",
			files: map[string]string{
				"internal/store/s.go": `package store

import (
	"sync"
	"time"
)

type Store struct {
	mu sync.Mutex
}

func (s *Store) backoff() { time.Sleep(time.Millisecond) }

func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backoff()
}
`,
			},
			want: []string{
				"internal/store/s.go:17: [lockblock]",
				"carries Blocking{sleep}",
				"store.Store.backoff → time.Sleep",
			},
			count: 1,
		},
		{
			name:     "lockblock accepts unlock-before-IO and file writes under lock",
			analyzer: "lockblock",
			files: map[string]string{
				"internal/store/s.go": `package store

import (
	"net"
	"os"
	"sync"
)

type Store struct {
	mu   sync.Mutex
	buf  []byte
	conn net.Conn
}

func (s *Store) Flush() error {
	s.mu.Lock()
	data := append([]byte(nil), s.buf...)
	s.mu.Unlock()
	_, err := s.conn.Write(data)
	return err
}

func (s *Store) Persist(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.WriteFile(path, s.buf, 0o600)
}
`,
			},
			count: 0,
		},
		{
			name:     "globalmut flags an exported API writing package state",
			analyzer: "globalmut",
			files: map[string]string{
				"internal/reg/r.go": `package reg

var count int

func bump() { count++ }

func Register(name string) {
	bump()
}
`,
			},
			want: []string{
				"internal/reg/r.go:7: [globalmut]",
				"mutates package-level state without synchronization",
				"reg.Register → reg.bump → write to reg.count",
			},
			count: 1,
		},
		{
			name:     "globalmut accepts locked, atomic, and init-time writes",
			analyzer: "globalmut",
			files: map[string]string{
				"internal/reg/r.go": `package reg

import (
	"sync"
	"sync/atomic"
)

var (
	mu       sync.Mutex
	count    int
	total    atomic.Int64
	registry map[string]int
)

func init() {
	registry = make(map[string]int)
}

func Register(name string) {
	mu.Lock()
	defer mu.Unlock()
	count++
}

func Bump() {
	total.Add(1)
}
`,
			},
			count: 0,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := writeTree(t, tc.files)
			got := runFixture(t, dir, tc.analyzer)
			if len(got) != tc.count {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), tc.count, strings.Join(got, "\n"))
			}
			for _, want := range tc.want {
				found := false
				for _, g := range got {
					if strings.Contains(g, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no finding contains %q; got:\n%s", want, strings.Join(got, "\n"))
				}
			}
		})
	}
}

// pureParMutationBase is a shard-closure fixture where every
// nondeterminism source is routed through a seam: randomness through
// the shard's rng argument, time through the simclock package.
// TestPureParMutation deletes each seam in turn and demands a finding
// with the correct interprocedural blame chain — the static analogue
// of the seed-equivalence tests' mutation coverage.
var pureParMutationBase = map[string]string{
	"internal/par/par.go": effectParStub,
	"internal/simclock/clock.go": `package simclock

import "time"

func Start() int64 {
	return time.Date(2016, 9, 1, 0, 0, 0, 0, time.UTC).Unix()
}
`,
	"internal/shard/s.go": `package shard

import (
	"math/rand"

	"repro/internal/par"
	"repro/internal/simclock"
)

func sample(rng *rand.Rand, n int) int { return rng.Intn(n) }

func when() int64 { return simclock.Start() }

func Run(seed int64, items []int) []int64 {
	return par.Map(seed, items, func(i int, it int, rng *rand.Rand) int64 {
		return int64(sample(rng, it+1)) + when()
	})
}
`,
}

func TestPureParMutation(t *testing.T) {
	base := runFixture(t, writeTree(t, pureParMutationBase), "purepar")
	if len(base) != 0 {
		t.Fatalf("seam-routed base fixture must be clean, got:\n%s", strings.Join(base, "\n"))
	}

	mutations := []struct {
		name string
		old  string
		new  string
		want []string
	}{
		{
			name: "replacing the rng seam with ambient randomness",
			old:  "func sample(rng *rand.Rand, n int) int { return rng.Intn(n) }",
			new:  "func sample(rng *rand.Rand, n int) int { return rand.Intn(n) }",
			want: []string{
				"[purepar]", "carries AmbientRand",
				"shard.Run.func1 → shard.sample → rand.Intn",
			},
		},
		{
			name: "replacing the simclock seam with the wall clock",
			old:  "func when() int64 { return simclock.Start() }",
			new: `func when() int64 { return time.Now().Unix() }

var _ = simclock.Start`,
			want: []string{
				"[purepar]", "carries ReadsClock",
				"shard.Run.func1 → shard.when → time.Now",
			},
		},
	}
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			files := make(map[string]string, len(pureParMutationBase))
			for k, v := range pureParMutationBase {
				files[k] = v
			}
			src := strings.Replace(files["internal/shard/s.go"], m.old, m.new, 1)
			if src == files["internal/shard/s.go"] {
				t.Fatalf("mutation %q did not apply", m.old)
			}
			if strings.Contains(m.new, "time.Now") {
				src = strings.Replace(src, "\"math/rand\"", "\"math/rand\"\n\t\"time\"", 1)
			}
			files["internal/shard/s.go"] = src
			got := runFixture(t, writeTree(t, files), "purepar")
			if len(got) != 1 {
				t.Fatalf("got %d findings, want exactly 1:\n%s", len(got), strings.Join(got, "\n"))
			}
			for _, want := range m.want {
				if !strings.Contains(got[0], want) {
					t.Errorf("finding lacks %q:\n%s", want, got[0])
				}
			}
		})
	}
}

// TestEffectSummariesGolden pins the -format=effects output over the
// real module: internal/par's summaries verbatim (the lattice's
// rendered shape), and internal/sanitize — the §4.2.2 seam every
// captured byte flows through — entirely pure.
func TestEffectSummariesGolden(t *testing.T) {
	prog, targets, err := LoadProgram(".", []string{"../par", "../sanitize"})
	if err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	var parPkgs, sanPkgs []*Package
	for _, pkg := range targets {
		switch pkg.Path {
		case prog.Module + "/internal/par":
			parPkgs = append(parPkgs, pkg)
		case prog.Module + "/internal/sanitize":
			sanPkgs = append(sanPkgs, pkg)
		}
	}
	if len(parPkgs) != 1 || len(sanPkgs) != 1 {
		t.Fatalf("expected par and sanitize targets, got %d packages", len(targets))
	}

	var buf bytes.Buffer
	if err := WriteEffects(&buf, EffectSummaries(prog, parPkgs)); err != nil {
		t.Fatal(err)
	}
	const wantPar = `internal/par.For: Blocking{lock}
internal/par.For.func1: pure
internal/par.Map: Blocking{lock}
internal/par.Map.func1: pure
internal/par.MapAt: Blocking{lock}
internal/par.MapAt.func1: pure
internal/par.MapErr: Blocking{lock}
internal/par.MapErr.func1: pure
internal/par.NumWorkers: pure
internal/par.Rand: pure
internal/par.SetWorkers: pure
internal/par.SubSeed: pure
internal/par.splitmix.Int63: pure
internal/par.splitmix.Seed: pure
internal/par.splitmix.Uint64: pure
`
	if buf.String() != wantPar {
		t.Errorf("internal/par effect dump diverged:\n got:\n%s\nwant:\n%s", buf.String(), wantPar)
	}

	// The sanitize seam may carry at most Blocking{lock}: the match
	// engine behind Scan grows its lazy DFA and recycles scan handles
	// under a mutex (and lockblock proves nothing blocks while it is
	// held). Everything else stays forbidden — a clock read, ambient
	// randomness, an unsynchronized global write, channel or network
	// blocking anywhere under the seam is still a regression.
	lockOnly := cfg.NoEffects.With(cfg.BlockingLock)
	for _, s := range EffectSummaries(prog, sanPkgs) {
		if !s.Effects.Leq(lockOnly) {
			t.Errorf("sanitize seam must stay lock-pure: %s.%s carries %s", s.Pkg, s.Name, s.Effects)
		}
	}
}

// TestEffectCalleeEditReflagsCaller proves a caller package's findings
// follow its callee's body: effects flow callee → caller, so editing
// only the callee re-flags the caller's unchanged shard closure.
func TestEffectCalleeEditReflagsCaller(t *testing.T) {
	files := map[string]string{
		"internal/par/par.go":   effectParStub,
		"internal/util/util.go": "package util\n\nfunc Helper(n int) int { return n * 2 }\n",
		"internal/runner/runner.go": `package runner

import (
	"math/rand"

	"repro/internal/par"
	"repro/internal/util"
)

func Shard(seed int64, items []int) []int {
	return par.Map(seed, items, func(i int, it int, rng *rand.Rand) int {
		return util.Helper(it)
	})
}
`,
	}
	dir := writeTree(t, files)
	analyzers := []string{"purepar", "lockblock", "globalmut"}
	if base := runFixtureFindings(t, dir, analyzers...); len(base) != 0 {
		t.Fatalf("base fixture must be clean, got:\n%v", base)
	}

	// Only util.go changes; runner.go's bytes are untouched, but its
	// shard closure now transitively reads the clock.
	edited := "package util\n\nimport \"time\"\n\nfunc Helper(n int) int { return n * int(time.Now().Unix()%3) }\n"
	if err := os.WriteFile(filepath.Join(dir, "internal/util/util.go"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	findings := runFixtureFindings(t, dir, analyzers...)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want the re-flagged runner shard:\n%v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "purepar" || !strings.Contains(f.Pos.Filename, "runner") {
		t.Errorf("wrong finding: %s", f)
	}
	if !strings.Contains(f.Message, "runner.Shard.func1 → util.Helper → time.Now") {
		t.Errorf("blame chain missing from message: %s", f.Message)
	}
	if !strings.Contains(f.Detail, "ReadsClock:") || !strings.Contains(f.Detail, "internal/util/util.go:5") {
		t.Errorf("detail chain missing positions: %q", f.Detail)
	}
}

// effectBenchFiles extends the shared benchmark module with a par stub
// and a seam-clean shard package so the fixpoint engine has call-graph
// depth to chew on.
func effectBenchFiles() map[string]string {
	files := make(map[string]string, len(benchFiles)+2)
	for k, v := range benchFiles {
		files[k] = v
	}
	files["internal/par/par.go"] = effectParStub
	files["internal/shard/shard.go"] = `package shard

import (
	"math/rand"
	"sort"

	"repro/internal/par"
)

func weigh(rng *rand.Rand, n int) int { return rng.Intn(n + 1) }

func Run(seed int64, ms []map[string]int) [][]string {
	return par.Map(seed, ms, func(i int, m map[string]int, rng *rand.Rand) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys[:weigh(rng, len(keys)-1)]
	})
}
`
	return files
}

// BenchmarkRepolintEffects reports the cost of loading, typechecking
// and running the L4 effect analyzers (summary fixpoint included) over
// a fresh program each iteration; the BENCH_*.json regression gate
// tracks it staying cheap.
func BenchmarkRepolintEffects(b *testing.B) {
	analyzers := []*Analyzer{PureParAnalyzer, LockBlockAnalyzer, GlobalMutAnalyzer}
	dir := writeTree(b, effectBenchFiles())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, targets, err := LoadProgram(dir, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		Run(prog, targets, analyzers)
	}
}
