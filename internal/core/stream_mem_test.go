package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

// peakHeap runs fn while sampling the peak LIVE heap: each sample
// forces a collection and reads HeapAlloc, so the reading is retained
// memory — the working set — rather than the GC pacer's sawtooth, which
// for this allocation-heavy, low-retention workload floats at a multiple
// of the live set and scales with allocation rate, not with what is
// actually held. A tight GC percent bounds the float between samples.
func peakHeap(fn func()) uint64 {
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var peak atomic.Uint64
	record := func() {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		for {
			old := peak.Load()
			if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
				break
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			record()
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	fn()
	record() // catch final state before teardown
	close(stop)
	wg.Wait()
	return peak.Load()
}

// TestStreamingFlatMemory is the scale bar from the issue: Experiment 1
// (the full collection study) at 100x the day count must run with a flat
// working set — peak heap within 2x of the 1x run. The test oracle
// (runOracle) cannot do this: it holds every email of the whole window
// at once. Run's chunk + spill design must.
func TestStreamingFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("heap-profiling scale test; skipped in -short")
	}
	defer par.SetWorkers(0)
	par.SetWorkers(4)

	run := func(days int) uint64 {
		cfg := DefaultConfig()
		cfg.Seed = 20160604
		cfg.Days = days
		cfg.Outages = nil
		cfg.StreamChunkDays = 2
		cfg.SpillDir = t.TempDir()
		// A small spill budget makes the pending queue's resident ceiling
		// negligible next to the fixed overhead, so the comparison below
		// isolates whatever scales with the day count.
		cfg.SpillBudgetBytes = 1 << 20
		// Evidence goes to the log-structured vault: the in-memory vault
		// retains every encrypted record and would grow with the day
		// count by design — the segment store is the other half of what
		// makes paper-scale replay flat.
		cfg.VaultDir = t.TempDir()
		return peakHeap(func() {
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// The two sides must be measured in like states. The 100x run goes
	// first: it fills the process-wide memos (corpus.skeletonCache, the
	// match engine's lazy DFA) that whichever run comes first would
	// otherwise pay for alone, so every 1x run below sees them warm. And
	// peakHeap's maximum grows with the number of samples: a 1x run
	// lasts ~15 ms, a handful of samples, while the 100x run's hundreds
	// of samples catch the worst moment of transients that do not grow
	// with the day count (a chunk's generated units, a flush's drained
	// days and their Prepare results). Repeating the 1x run 100 times
	// gives it the 100x run's sample count.
	const base = 3
	peak100x := run(100 * base)
	var peak1x uint64
	for i := 0; i < 100; i++ {
		if p := run(base); p > peak1x {
			peak1x = p
		}
	}
	t.Logf("peak heap: 1x (%d days) = %.1f MB, 100x (%d days) = %.1f MB",
		base, float64(peak1x)/(1<<20), 100*base, float64(peak100x)/(1<<20))
	if peak100x > 2*peak1x {
		t.Fatalf("100x run peak heap %.1f MB exceeds 2x the 1x run's %.1f MB — working set is not flat",
			float64(peak100x)/(1<<20), float64(peak1x)/(1<<20))
	}
}
