// Package par is the repository's deterministic data-parallelism layer:
// a bounded worker pool with ordered result merge, where every work item
// receives its own splitmix64 PRNG stream derived from (seed, index).
// Because an item's randomness is a pure function of the seed and its
// position — never of scheduling — the output of Map is byte-identical
// to a sequential run at any GOMAXPROCS and any worker count. That is
// the property the simulation substrate leans on: the ecosystem
// generator, the collection run and the experiment suite all fan out
// through this package and still replay bit-for-bit from a seed (the
// same contract internal/faultnet established per-connection).
//
// The pool is safe by construction for the repository's own analyzers:
// workers are spawned by a bounded counter loop (unboundedspawn's
// worker-pool exemption), each claims indices from a shared atomic
// counter and blocks on nothing, and Map does not return before the
// WaitGroup join that ends every worker (goleak's exit tie) — no
// goroutine outlives a call.
package par

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers overrides the pool size; 0 means GOMAXPROCS.
var workers atomic.Int64

// SetWorkers fixes the pool size for subsequent Map calls. n <= 0
// restores the default (GOMAXPROCS). Seed-equivalence tests pin this to
// 1 to obtain the reference sequential run.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// NumWorkers reports the pool size Map will use.
func NumWorkers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SubSeed derives the PRNG seed for item index under seed: output
// index+1 of the splitmix64 stream started at seed. Distinct indexes land
// in statistically independent streams. What the value seeds changed
// once, on purpose, when Rand moved from math/rand to splitmix64 (see
// Rand); any further change to SubSeed or Rand silently moves every
// seeded run in the module.
// Callers must keep their (seed, index) claims disjoint within a
// function — repolint's streamidx analyzer flags two derivations that
// claim the same statically-known index from the same seed.
func SubSeed(seed int64, index int) int64 {
	s := splitmix{state: uint64(seed) + uint64(index)*0x9E3779B97F4A7C15}
	return int64(s.Uint64())
}

// Rand returns the private PRNG for item index under seed: a splitmix64
// stream (Steele, Lea & Flood, OOPSLA 2014) whose state starts at
// SubSeed(seed, index). It replaced a math/rand source because seeding
// one filled a 607-word table (~4.9 KB), and the collection run calls
// Rand twice per (day, domain) unit: that seeding was a quarter of the
// run's CPU and most of its allocation. Eight bytes of splitmix64 state
// seed for free.
func Rand(seed int64, index int) *rand.Rand {
	return rand.New(&splitmix{state: uint64(SubSeed(seed, index))})
}

// splitmix is a splitmix64 rand.Source64: each step advances the state
// by the golden-ratio increment and returns the state's finalizer mix.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Map applies fn to every item on a bounded worker pool and returns the
// results in item order. fn receives the item's index, the item, and a
// PRNG derived from (seed, index); it must not touch shared mutable
// state. Results are written to distinct slice slots, so no ordering or
// locking is needed beyond the final join.
func Map[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	For(len(items), func(i int) {
		out[i] = fn(i, items[i], Rand(seed, i))
	})
	return out
}

// MapAt is Map for a window of a larger logical item sequence: item i of
// items is treated as global item base+i, and receives Rand(seed, base+i).
// Streaming callers split one long run into chunks and call MapAt per
// chunk; because each item's PRNG depends only on (seed, global index),
// the concatenated chunk outputs are byte-identical to a single
// Map(seed, all) over the whole sequence — at any chunk size and any
// worker count. fn receives the GLOBAL index.
func MapAt[T, R any](seed int64, base int, items []T, fn func(i int, item T, rng *rand.Rand) R) []R {
	out := make([]R, len(items))
	For(len(items), func(i int) {
		out[i] = fn(base+i, items[i], Rand(seed, base+i))
	})
	return out
}

// MapErr is Map for fallible fn. Every item runs regardless of other
// items' failures (items are independent by contract); the returned
// error is the lowest-index one, so the failure surfaced is the same
// one a sequential run would have hit first. On error the results of
// items before the failing index are still valid.
func MapErr[T, R any](seed int64, items []T, fn func(i int, item T, rng *rand.Rand) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	For(len(items), func(i int) {
		out[i], errs[i] = fn(i, items[i], Rand(seed, i))
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// For executes do(0..n-1) on min(NumWorkers, n) workers and joins them
// before returning: the index loop under Map, for work that draws no
// randomness. do must write only to slot i of its outputs.
func For(n int, do func(i int)) {
	w := NumWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}
