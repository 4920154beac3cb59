// Command perfbench is the SPARQL-endpoint benchmark: it builds one
// workload's dataset through the public load APIs, serves it from an
// in-process httpfront.Front on a loopback http.Server, drives it with
// closed-loop clients, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics and
// the tracing overhead). The last line of standard output is one JSON
// object; a human-readable report precedes it and a full report with
// distributions and run metadata is written under .bench_out/.
//
//	perfbench --workload bib-read --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the layer → metric → workload
// map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	buildDir = ".bench_build"
	outDir   = ".bench_out"
	// An untraced run sets up at least minSetups times and until
	// setupBudget is spent, at most maxSetups times; setup_s is the
	// median. A traced run sets up once.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
	// warmUp runs the clients unmeasured before the window, long enough
	// for array-mix to fill its chunk cache from cold.
	warmUp = 2 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+workloadNames())
	seed := fl.Int64("seed", 1, "generator seed")
	seconds := fl.Int("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if err := rep.save(); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported number with its distribution.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  dist    `json:"dist"`
}

// report is everything one run measured.
type report struct {
	Meta       map[string]any  `json:"meta"`
	Correct    bool            `json:"correct"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Checks     map[string]any  `json:"checks"`
	EndToEnd   []metric        `json:"end_to_end"`
	Extra      []metric        `json:"extra"`
	PerLayer   []metric        `json:"per_layer,omitempty"`
	LayerExtra []metric        `json:"per_layer_report_only,omitempty"`
	SelfTimeUS map[string]dist `json:"self_time_us,omitempty"`
	Failures   []string        `json:"failures,omitempty"`
	traced     bool
	tracer     *tracer
}

// result is the last line of standard output.
func (r *report) result() map[string]any {
	ms := map[string]any{}
	list := r.EndToEnd
	if r.traced {
		list = r.PerLayer
	}
	for _, m := range list {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %v\n", r.Meta)
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s (median %.4f, q1 %.4f, q3 %.4f, n %d)\n",
				m.Name, m.Value, m.Unit, m.Dist.Median, m.Dist.Q1, m.Dist.Q3, m.Dist.N)
		}
	}
	section("end-to-end", r.EndToEnd)
	section("also measured", r.Extra)
	section("per-layer", r.PerLayer)
	section("per-layer, report only", r.LayerExtra)
	if len(r.SelfTimeUS) > 0 {
		fmt.Fprintln(w, "self time per span (us):")
		var names []string
		for n := range r.SelfTimeUS {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := r.SelfTimeUS[n]
			fmt.Fprintf(w, "  %-34s median %10.1f  q1 %10.1f  q3 %10.1f  n %d\n", n, d.Median, d.Q1, d.Q3, d.N)
		}
	}
	fmt.Fprintf(w, "checks: %v\n", r.Checks)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// save writes the report (and, for a traced run, the spans) under
// .bench_out/.
func (r *report) save() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", r.Meta["workload"], r.Meta["seed"], boolInt(r.traced)))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.tracer != nil {
		return r.tracer.write(base + ".spans.jsonl")
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runMeta records where and on what the run happened.
func runMeta(w *workload, seed int64, window time.Duration, traced bool) map[string]any {
	return map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    window.Seconds(),
		"traced":     traced,
		"clients":    w.clients,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    gitSHA(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitSHA reads the checked-out commit from .git when there is one.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
