// Command perfbench is the repository benchmark. It runs one workload
// against the EasyHPS runtime for a fixed time, checks every answer
// against the sequential reference, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) by name with their units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {"cells_per_s": {"value": 2.1e7, "unit": "cells/s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.sh, which
// forwards its arguments:
//
//	bash perfbench/run.sh --workload wavefront-editdist --seed 1 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// declared is a metric as BENCHMARK.json at the repository root lists it:
// end_to_end metrics are reported with tracing off, per_layer ones with
// tracing on.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(path string, traced bool) ([]declared, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// options are the run parameters every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

var workloads = map[string]func(options) (*report, error){
	"wavefront-editdist": runWavefront,
	"rowcol-swgg":        runRowCol,
	"service-mixed":      runService,
}

// scratchDir, relative to the checkout root, holds the checkpoint logs
// and span dumps.
const scratchDir = ".bench_build/run"

// runDeadline bounds the whole process: a run that hangs fails instead of
// holding the machine.
const runDeadline = 175 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: wavefront-editdist, rowcol-swgg or service-mixed")
		seed    = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 30, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	time.AfterFunc(runDeadline, func() { fatalf("run exceeded %v", runDeadline) })
	want, err := loadDeclared("BENCHMARK.json", *traced == 1)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rep, err := run(options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1})
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if err := rep.print(os.Stdout, *name, want); err != nil {
		fatalf("%s: %v", *name, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// report collects a run's outcome and metrics.
type report struct {
	attempted, failed int
	// problems lists every failed check, for the human-readable output.
	problems []string
	metrics  map[string]metric
	notes    map[string]string
	// extra lines printed before the metrics (self time per layer, ...).
	extra []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notes: make(map[string]string)}
}

// set records a metric with its unit and a note naming its sample count or
// base.
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// fail counts a failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(w *os.File, workload string, want []declared) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, make(map[string]metric)}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s is measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		out.Metrics[d.Name] = m
	}
	fmt.Fprintf(w, "workload %s\n", workload)
	for _, l := range r.extra {
		fmt.Fprintln(w, l)
	}
	for _, d := range want {
		m := r.metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", d.Name, m.Value, m.Unit, r.notes[d.Name])
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-8s (%d of %d operations)\n", "failed_ratio", ratio, "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// selfTimeLines renders the per-layer self times of a traced run,
// normalized per operation.
func selfTimeLines(spans []span, ops int, opName string) []string {
	totals := layerTotals(spans)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("  self time per %s by layer (%d %ss, %d spans):", opName, ops, opName, len(spans))}
	for _, n := range names {
		t := totals[n]
		lines = append(lines, fmt.Sprintf("    %-20s self %10.4f s  total %10.4f s  spans %8.1f  bytes %12.0f",
			n, perOp(t.own.Seconds(), ops), perOp(t.total.Seconds(), ops),
			perOp(float64(t.count), ops), perOp(float64(t.bytes), ops)))
	}
	return lines
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median and percentile work on a copy; percentile uses the nearest-rank
// definition, so p99 of fewer than 100 samples is the largest one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// beyond reports how many samples lie above the q-th percentile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}
