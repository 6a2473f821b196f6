package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/vault"
)

// collect-stream: the headline collection path, core.Study.Run in its
// streaming mode with the spill queue and the log-structured vault, over
// the paper's full 225-day window. Each unit of work is one fresh study:
// NewStudy (the set-up) then Run (the measured part).

// spillBudget is the pending-queue budget before the stream spills to
// disk. At this budget the spill stays idle on the default window; the
// benchmark records that as a prediction (spill.files_peak = 0).
const spillBudget = 32 << 20

func collectConfig(seed int64, dir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Streaming = true
	cfg.SpillDir = filepath.Join(dir, "spill")
	cfg.SpillBudgetBytes = spillBudget
	cfg.VaultDir = filepath.Join(dir, "vault")
	return cfg
}

// newCollectStudy times core.NewStudy on fresh directories.
func newCollectStudy(o opts, dir string, tr *tracer) (*core.Study, time.Duration, error) {
	cfg := collectConfig(o.seed, dir)
	if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sp := tr.begin("core.NewStudy", -1, -1)
	study, err := core.NewStudy(cfg)
	tr.end(sp)
	return study, time.Since(start), err
}

// collectIter is one measured unit.
type collectIter struct {
	traced   bool
	run      time.Duration
	emails   int
	rt       rtDelta
	spillMax int
	segments int
	live     int64
	puts     int
	close    time.Duration
}

func runCollectStream(o opts) (*report, error) {
	rep := &report{}
	n := 0
	setups, err := timeSetups(func() (time.Duration, error) {
		dir := filepath.Join(o.scratch, fmt.Sprintf("setup%d", n))
		n++
		study, setup, err := newCollectStudy(o, dir, nil)
		if err != nil {
			return 0, err
		}
		_ = study.Vault.Close() // nothing was stored
		return setup, os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	var iters []collectIter
	var digest string
	deadline := time.Now().Add(o.seconds)
	// In a traced run every other unit runs untraced, so the difference of
	// the two medians is the tracing overhead.
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 0
		var tr *tracer
		if traced {
			tr = o.tr
		}
		dir := filepath.Join(o.scratch, fmt.Sprintf("unit%d", i))
		study, _, err := newCollectStudy(o, dir, tr)
		if err != nil {
			return nil, err
		}

		var sampler *dirSampler
		if traced {
			sampler = startDirSampler(study.Cfg.SpillDir, ".spill")
		}
		before := readRuntime()
		sp := tr.begin("core.Study.Run", -1, -1)
		start := time.Now()
		res, runErr := study.Run()
		wall := time.Since(start)
		tr.end(sp)
		it := collectIter{traced: traced, run: wall, rt: before.to(readRuntime())}
		if sampler != nil {
			it.spillMax = sampler.stop()
		}
		rep.Attempted++
		if runErr != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("unit %d: Run: %v", i, runErr))
			os.RemoveAll(dir)
			continue
		}
		it.emails = res.EmailsProcessed
		lv := study.Vault.(*vault.LogVault)
		st := lv.Stats()
		it.segments, it.live, it.puts = st.Segments, st.LiveBytes, lv.Len()
		cs := tr.begin("vault.LogVault.Close", -1, -1)
		closeStart := time.Now()
		closeErr := lv.Close()
		it.close = time.Since(closeStart)
		tr.end(cs)
		rep.check(closeErr == nil, "unit %d: vault close: %v", i, closeErr)
		rep.check(it.puts == res.VaultRecords,
			"unit %d: vault holds %d records, Result says %d", i, it.puts, res.VaultRecords)
		left, _ := filepath.Glob(filepath.Join(study.Cfg.SpillDir, "*.spill"))
		rep.check(len(left) == 0, "unit %d: %d spill segments left behind", i, len(left))
		d := resultDigest(res)
		if digest == "" {
			digest = d
		}
		rep.check(d == digest, "unit %d: Result digest %.12s differs from the first unit's %.12s", i, d, digest)
		os.RemoveAll(dir)
		iters = append(iters, it)
	}
	peak := peakRSSMB()

	// The streaming Result must equal the materialized one regenerate
	// builds at the same seed. A child process computes it so its memory
	// stays out of this process's peak.
	var ref childOut
	_, err = runSelf(&ref, "materialized", o.seed)
	rep.check(err == nil, "materialized reference run: %v", err)
	if err == nil && digest != "" {
		rep.check(ref.Digest == digest, "streaming Result digest %.12s differs from materialized %.12s", digest, ref.Digest)
	}
	if len(iters) == 0 {
		return nil, fmt.Errorf("no unit completed: %s", strings.Join(rep.Problems, "; "))
	}

	var untraced, traced []collectIter
	for _, it := range iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			untraced = append(untraced, it)
		}
	}
	if o.trace {
		return collectLayers(rep, traced, untraced), nil
	}
	var walls, rates []float64
	var emails, total float64
	for _, it := range untraced {
		walls = append(walls, it.run.Seconds())
		rates = append(rates, float64(it.emails)/it.run.Seconds())
		emails += float64(it.emails)
		total += it.run.Seconds()
	}
	wallMs := scale(walls, 1000)
	rep.metric("setup_s", "s", quantile(setups, 0.5), setups...)
	rep.metric("emails_per_s", "1/s", quantile(rates, 0.5), rates...)
	rep.metric("wall_s", "s", quantile(walls, 0.5), walls...)
	rep.metric("peak_rss_mb", "MB", peak)
	rep.metric("latency_p50_ms", "ms", quantile(wallMs, 0.5), wallMs...)
	rep.metric("max_rate_per_s", "1/s", emails/total)
	return rep, nil
}

func collectLayers(rep *report, traced, untraced []collectIter) *report {
	var runs, util, alloc, gc, closes []float64
	spill, segs, puts := 0, 0, 0
	var live int64
	for _, it := range traced {
		runs = append(runs, it.run.Seconds())
		util = append(util, it.rt.cpuUtil)
		alloc = append(alloc, it.rt.allocMB/(float64(it.emails)/1000))
		gc = append(gc, it.rt.gcCPUFrac)
		closes = append(closes, it.close.Seconds())
		spill = max(spill, it.spillMax)
		segs, live, puts = it.segments, it.live, it.puts
	}
	var plain []float64
	for _, it := range untraced {
		plain = append(plain, it.run.Seconds())
	}
	rep.metric("core.run_s", "s", quantile(runs, 0.5), runs...)
	rep.metric("par.cpu_util", "ratio", quantile(util, 0.5), util...)
	rep.metric("runtime.alloc_mb_per_kemail", "MB", quantile(alloc, 0.5), alloc...)
	rep.metric("runtime.gc_cpu_frac", "ratio", quantile(gc, 0.5), gc...)
	rep.metric("vault.segments", "count", float64(segs))
	rep.metric("vault.live_bytes", "bytes", float64(live))
	rep.metric("vault.put_calls", "count", float64(puts))
	rep.metric("vault.close_s", "s", quantile(closes, 0.5), closes...)
	rep.metric("spill.files_peak", "count", float64(spill))
	overhead(rep, quantile(runs, 0.5), quantile(plain, 0.5))
	return rep
}

// overhead reports the traced unit's median time minus the untraced one's.
func overhead(rep *report, traced, untraced float64) {
	rep.metric("trace.overhead_s", "s", traced-untraced)
	if untraced > 0 {
		rep.metric("trace.overhead_frac", "ratio", (traced-untraced)/untraced)
	}
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// dirSampler polls a directory and keeps the most files with a suffix it
// saw at once.
type dirSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startDirSampler(dir, suffix string) *dirSampler {
	s := &dirSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			entries, _ := os.ReadDir(dir) // a missing dir holds no files
			n := 0
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), suffix) {
					n++
				}
			}
			s.peak = max(s.peak, n)
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak; s.peak is read only after
// the goroutine has exited.
func (s *dirSampler) stop() int {
	close(s.done)
	s.wg.Wait()
	return s.peak
}
