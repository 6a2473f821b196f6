package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// withWorkers runs f with the pool pinned to n workers and restores the
// default afterwards.
func withWorkers(n int, f func()) {
	SetWorkers(n)
	defer SetWorkers(0)
	f()
}

func TestMapOrderedAndDeterministic(t *testing.T) {
	items := make([]int, 503)
	for i := range items {
		items[i] = i
	}
	render := func(workers int) []string {
		var out []string
		withWorkers(workers, func() {
			out = Map(42, items, func(i, item int, rng *rand.Rand) string {
				return fmt.Sprintf("%d:%d:%d", i, item, rng.Intn(1_000_000))
			})
		})
		return out
	}
	ref := render(1)
	for _, w := range []int{2, 3, 8, 64} {
		got := render(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result[%d] = %q, sequential ref %q", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(1, nil, func(i, item int, rng *rand.Rand) int { return item }); len(got) != 0 {
		t.Fatalf("nil items -> %v", got)
	}
	got := Map(1, []int{7}, func(i, item int, rng *rand.Rand) int { return item * 2 })
	if len(got) != 1 || got[0] != 14 {
		t.Fatalf("single item -> %v", got)
	}
}

// TestForVisitsEveryIndexOnce runs For at several pool sizes, including
// more workers than items and no items, and requires each index to be
// visited exactly once before For returns.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 5, 1000} {
			withWorkers(w, func() {
				hits := make([]int, n)
				For(n, func(i int) { hits[i]++ })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
					}
				}
			})
		}
	}
}

func TestSubSeedStreamsDiffer(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 10_000; i++ {
		s := SubSeed(20160604, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SubSeed collision: index %d and %d -> %d", prev, i, s)
		}
		seen[s] = i
	}
	// Different master seeds must give different streams for index 0.
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Fatal("master seed has no effect on index 0")
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	errLow, errHigh := errors.New("low"), errors.New("high")
	withWorkers(4, func() {
		out, err := MapErr(9, items, func(i, item int, rng *rand.Rand) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 6:
				return 0, errHigh
			}
			return item * item, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("err = %v, want the lowest-index error", err)
		}
		for i := 0; i < 3; i++ {
			if out[i] != i*i {
				t.Fatalf("result[%d] = %d before failing index", i, out[i])
			}
		}
	})
}

func TestMapErrSuccess(t *testing.T) {
	out, err := MapErr(3, []string{"a", "bb"}, func(i int, item string, rng *rand.Rand) (int, error) {
		return len(item), nil
	})
	if err != nil || out[0] != 1 || out[1] != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestWorkersKnob(t *testing.T) {
	SetWorkers(3)
	if NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d after SetWorkers(3)", NumWorkers())
	}
	SetWorkers(-5)
	if NumWorkers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("NumWorkers = %d, want GOMAXPROCS default", NumWorkers())
	}
	SetWorkers(0)
}

// TestMapNoGoroutineLeak asserts the pool joins fully: Map must not
// return while any worker is still alive.
func TestMapNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	withWorkers(16, func() {
		Map(5, make([]int, 1000), func(i, item int, rng *rand.Rand) int { return rng.Int() })
	})
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Map", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMapAtChunkEquivalence is the streaming substrate's seed contract:
// splitting one logical sequence into chunks and mapping each chunk with
// MapAt at its global base offset reproduces Map over the whole sequence
// byte-for-byte, at any chunk size and any worker count.
func TestMapAtChunkEquivalence(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	fn := func(i, item int, rng *rand.Rand) string {
		return fmt.Sprintf("%d:%d:%d:%d", i, item, rng.Int63(), rng.Intn(97))
	}
	var ref []string
	withWorkers(1, func() { ref = Map(99, items, fn) })
	for _, chunk := range []int{1, 7, 64, 256, 1024} {
		for _, w := range []int{1, 3, 8} {
			var got []string
			withWorkers(w, func() {
				for base := 0; base < len(items); base += chunk {
					end := base + chunk
					if end > len(items) {
						end = len(items)
					}
					got = append(got, MapAt(99, base, items[base:end], fn)...)
				}
			})
			if len(got) != len(ref) {
				t.Fatalf("chunk=%d workers=%d: %d results, want %d", chunk, w, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("chunk=%d workers=%d: item %d = %q, want %q", chunk, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestMapAtGlobalIndex pins that fn observes the global index, not the
// chunk-local one.
func TestMapAtGlobalIndex(t *testing.T) {
	out := MapAt(7, 100, []int{10, 20}, func(i, item int, rng *rand.Rand) int {
		return i*1000 + item
	})
	if out[0] != 100010 || out[1] != 101020 {
		t.Fatalf("MapAt global indexes wrong: %v", out)
	}
}

// refSplitMix64 is the plain splitmix64 generator (Steele, Lea & Flood,
// OOPSLA 2014), written out once in test code as Rand's oracle.
type refSplitMix64 struct{ x uint64 }

func (r *refSplitMix64) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// refRand is the reference stream for Rand(seed, index): its state
// starts at output index+1 of the reference generator run from seed,
// which is what SubSeed's closed form computes.
func refRand(seed int64, index int) *refSplitMix64 {
	r := &refSplitMix64{x: uint64(seed)}
	var start uint64
	for k := 0; k <= index; k++ {
		start = r.next()
	}
	return &refSplitMix64{x: start}
}

// TestRandMatchesSplitMix64 checks Rand's first 64 Uint64, Int63 and
// Float64 outputs against the reference for several (seed, index) pairs.
func TestRandMatchesSplitMix64(t *testing.T) {
	for _, p := range []struct {
		seed  int64
		index int
	}{{0, 0}, {1, 7}, {20160604, 0}, {-3, 1000}} {
		u, i63, f := Rand(p.seed, p.index), Rand(p.seed, p.index), Rand(p.seed, p.index)
		ru, ri, rf := refRand(p.seed, p.index), refRand(p.seed, p.index), refRand(p.seed, p.index)
		for k := 0; k < 64; k++ {
			if got, want := u.Uint64(), ru.next(); got != want {
				t.Fatalf("Rand(%d, %d) Uint64 #%d = %#x, want %#x", p.seed, p.index, k, got, want)
			}
			if got, want := i63.Int63(), int64(ri.next()>>1); got != want {
				t.Fatalf("Rand(%d, %d) Int63 #%d = %#x, want %#x", p.seed, p.index, k, got, want)
			}
			if got, want := f.Float64(), float64(rf.next()>>1)/(1<<63); got != want {
				t.Fatalf("Rand(%d, %d) Float64 #%d = %v, want %v", p.seed, p.index, k, got, want)
			}
		}
	}
}

// TestRandKnownAnswers pins two literal vectors, so any change to the
// stream fails here before it moves a golden run.
func TestRandKnownAnswers(t *testing.T) {
	// The published splitmix64 outputs from state 0. Seed(0) restarts
	// any Rand there, and SubSeed(0, i) is output i+1 of that stream.
	published := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}
	r := Rand(20160604, 3)
	r.Seed(0)
	for k, want := range published {
		if got := r.Uint64(); got != want {
			t.Fatalf("after Seed(0), Uint64 #%d = %#x, want %#x", k, got, want)
		}
		if got := uint64(SubSeed(0, k)); got != want {
			t.Fatalf("SubSeed(0, %d) = %#x, want %#x", k, got, want)
		}
	}
	// The default study seed's first work item.
	r = Rand(20160604, 0)
	for k, want := range []uint64{0xd6ccc5473674c2c3, 0x162c9c25c9da7756, 0x5d103e28fb5945e1, 0x16c16a0c52b1fd5d} {
		if got := r.Uint64(); got != want {
			t.Fatalf("Rand(20160604, 0) Uint64 #%d = %#x, want %#x", k, got, want)
		}
	}
}
