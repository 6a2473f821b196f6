package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// header stamps a result with the machine and the source it measured.
func header() map[string]any {
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git. A
// checkout exported without .git has none; sourceDigest identifies the
// source then.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// dot-directories, so two results can be matched to the same source.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just stays out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSample reads the runtime counters the per-layer metrics difference.
type rtSample struct {
	at       time.Time
	cpu      time.Duration // process CPU from getrusage
	allocB   float64       // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU float64       // cumulative CPU seconds available to Go (runtime estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{at: time.Now(), cpu: cpuTime(),
		allocB: num(s[0].Value), gcCPU: num(s[1].Value), totalCPU: num(s[2].Value)}
}

// rtDelta is the runtime's share of one measured interval.
type rtDelta struct {
	wall      time.Duration
	cpuUtil   float64 // process CPU / (wall × GOMAXPROCS)
	allocMB   float64
	gcCPUFrac float64 // GC CPU / all CPU the runtime accounted
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{wall: b.at.Sub(a.at), allocMB: (b.allocB - a.allocB) / (1 << 20)}
	if d.wall > 0 {
		d.cpuUtil = float64(b.cpu-a.cpu) / (float64(d.wall) * float64(runtime.GOMAXPROCS(0)))
	}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}
