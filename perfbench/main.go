// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the reproduction's own packages, checks that the
// outputs are correct, and prints every metric BENCHMARK.json names, the
// last stdout line being one JSON object:
//
//	perfbench --workload collect-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and prints the per-layer
// metrics instead, plus the tracing overhead. It must run from the
// repository root (perfbench/run.sh builds it and does so). Scratch files,
// spans and a results log go under .bench_build/perfbench.
//
//	perfbench summarize
//
// prints the median and quartiles of every metric across the runs in the
// results log.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const workDir = ".bench_build/perfbench"

// opts is what every workload receives.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *tracer // nil unless trace
	scratch string  // a fresh directory under workDir for this run
}

// value is one reported metric. Samples, when present, are the per-unit
// measurements the value was taken from (their median, usually); they are
// printed with their quartiles so a run shows its own spread.
type value struct {
	Name    string
	Unit    string
	V       float64
	Samples []float64
}

// report is what a workload returns. Attempted counts units of work plus
// correctness checks; Failed counts the ones that failed, each with a
// line in Problems.
type report struct {
	Attempted int
	Failed    int
	Problems  []string
	Metrics   []value
}

func (r *report) metric(name, unit string, v float64, samples ...float64) {
	r.Metrics = append(r.Metrics, value{Name: name, Unit: unit, V: v, Samples: samples})
}

// check counts one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(opts) (*report, error){
	"collect-stream": runCollectStream,
	"regenerate":     runRegenerate,
	"ingest":         runIngest,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			if err := runChild(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
				os.Exit(1)
			}
			return
		case "summarize":
			if err := summarizeLog(filepath.Join(workDir, "results.jsonl")); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (collect-stream, regenerate, ingest)")
	seed := flag.Int64("seed", 20160604, "input seed")
	seconds := flag.Int("seconds", 25, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	scratch, err := os.MkdirTemp(ensureDir(workDir), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	hdr := header()
	hdrJSON, _ := json.Marshal(hdr)
	fmt.Printf("header %s\n", hdrJSON)

	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, tr: newTracer(*trace == 1), scratch: scratch}
	rep, err := fn(o)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if o.trace {
		path := filepath.Join(workDir, "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := o.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}

	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	metrics, err := selectMetrics(rep.Metrics, want, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	for _, p := range rep.Problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics}
	logResult(hdr, *workload, *seed, *trace, out.Correct, rep, metrics)
	fmt.Printf("failed_frac %.6g (%d of %d)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics prints every metric and returns the ones the spec names.
// An end-to-end metric the workload did not measure is an error. A
// per-layer metric of a layer the workload does not run reads 0, and is
// listed as such.
func selectMetrics(got []value, want []specMetric, perLayer bool) (map[string]jsonMetric, error) {
	byName := map[string]value{}
	for _, v := range got {
		byName[v.Name] = v
	}
	out := map[string]jsonMetric{}
	var idle []string
	for _, w := range want {
		v, ok := byName[w.Name]
		if !ok {
			if !perLayer {
				return nil, fmt.Errorf("metric %s was not measured", w.Name)
			}
			idle = append(idle, w.Name)
			v = value{Name: w.Name, Unit: w.Unit}
		}
		if v.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, v.Unit, w.Unit)
		}
		out[w.Name] = jsonMetric{Value: v.V, Unit: v.Unit}
		if ok {
			printMetric(v, perLayer)
		}
	}
	if len(idle) > 0 {
		fmt.Printf("layers not run by this workload (reported as 0): %s\n", strings.Join(idle, " "))
	}
	return out, nil
}

func printMetric(v value, perLayer bool) {
	line := fmt.Sprintf("metric %-36s %14.6g %s", v.Name, v.V, v.Unit)
	if len(v.Samples) >= 2 {
		d := summarize(v.Samples)
		line += fmt.Sprintf("  (n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g)", d.N, d.Median, d.Q1, d.Q3, d.Min, d.Max)
	}
	if perLayer {
		line += "  -> " + moves(v.Name)
	}
	fmt.Println(line)
}

// layerTargets says which end-to-end metric, on which workload, each
// per-layer metric should move, by name prefix, most specific first.
// NOTES.md gives the reasoning.
var layerTargets = []struct{ prefix, moves string }{
	{"core.", "emails_per_s on collect-stream"},
	{"par.", "emails_per_s on collect-stream, wall_s on regenerate"},
	{"runtime.", "emails_per_s on collect-stream, wall_s on regenerate"},
	{"vault.put_", "latency_p50_ms on ingest; nothing on collect-stream"},
	{"vault.", "nothing on collect-stream (predicted off the critical path)"},
	{"spill.", "nothing on collect-stream (predicted idle)"},
	{"experiments.", "wall_s and peak_rss_mb on regenerate, nothing elsewhere"},
	{"mailmsg.", "latency_p50_ms on ingest"},
	{"smtpc.", "latency_p50_ms on ingest"},
	{"smtpd.session_us", "latency_p50_ms on ingest"},
	{"smtpd.", "nothing: reconciliation counts"},
	{"spamfilter.", "max_rate_per_s on ingest"},
	{"sanitize.", "latency_p50_ms on ingest; wall_s on regenerate via experiments.table2_s"},
	{"ingest.typo_share", "latency_p50_ms on ingest"},
	{"ingest.latency_p99_ms", "the reference-rate tail, kept out of the end-to-end set (see NOTES.md)"},
	{"ingest.", "nothing: the reference-rate sample count"},
	{"resolve.", "nothing after warm-up"},
	{"dnsserve.", "nothing after warm-up"},
	{"loadgen.", "nothing: shows the generator was not the bottleneck"},
	{"trace.", "nothing: tracing overhead, traced minus untraced"},
}

func moves(name string) string {
	for _, t := range layerTargets {
		if strings.HasPrefix(name, t.prefix) {
			return t.moves
		}
	}
	return "unmapped"
}

// One set-up takes a few milliseconds, too short to time alone against
// scheduler and timer noise. A run therefore times setupSamples batches of
// setupBatch set-ups before any measured work, and setup_s is the median
// of the batch means. Each set-up starts from a collected heap, so where a
// collection falls does not decide how long a set-up takes.
const (
	setupBatch   = 8
	setupSamples = 15
)

// timeSetups returns the batch means of once, which sets up, tears down
// and reports how long the set-up alone took.
func timeSetups(once func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for s := 0; s < setupSamples; s++ {
		var sum time.Duration
		for b := 0; b < setupBatch; b++ {
			runtime.GC()
			d, err := once()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			sum += d
		}
		out = append(out, sum.Seconds()/setupBatch)
	}
	return out, nil
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure that matters
	return dir
}

// logResult appends the run to the results log that summarize reads.
func logResult(hdr map[string]any, workload string, seed int64, trace int, correct bool, rep *report, metrics map[string]jsonMetric) {
	rec := map[string]any{
		"header": hdr, "workload": workload, "seed": seed, "trace": trace,
		"correct": correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(workDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results log: %v\n", err)
		return
	}
	defer f.Close()
	if _, err := f.Write(append(blob, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results log: %v\n", err)
	}
}

// summarizeLog prints, per workload, trace mode and metric, the median and
// quartiles across logged runs, and the quartile spread as a share of the
// median — the figure a benchmark bound is checked against.
func summarizeLog(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	vals := map[key][]float64{}
	units := map[key]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		var rec struct {
			Workload string                `json:"workload"`
			Trace    int                   `json:"trace"`
			Metrics  map[string]jsonMetric `json:"metrics"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		for name, m := range rec.Metrics {
			k := key{rec.Workload, rec.Trace, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Printf("%-15s %-5s %-36s %4s %12s %12s %12s %8s\n", "workload", "trace", "metric", "n", "q1", "median", "q3", "iqr/med")
	for _, k := range keys {
		xs := vals[k]
		if len(xs) < 2 {
			continue
		}
		q1, med, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-15s %-5d %-36s %4d %12.6g %12.6g %12.6g %8.4f %s\n", k.workload, k.trace, k.metric, len(xs), q1, med, q3, spread, units[k])
	}
	return nil
}
