// Command ssdm-bench regenerates the evaluation tables of the paper /
// dissertation:
//
//	-exp 1   retrieval-strategy comparison (§6.3.2)
//	-exp 2   IN-list buffer size sweep (§6.3.3)
//	-exp 3   chunk size sweep (§6.3.4)
//	-exp 4   BISTAB application queries (§6.4.4–6.4.5)
//	-exp 5   RDF collection consolidation (§5.3.2)
//	-exp 6   client/server workflow round trips (chapter 7)
//	-exp 7   BISTAB dataset scaling
//	-exp 8   parallel chunk retrieval: fetch worker pool sweep
//	-exp 9   batch-at-a-time (vectorized) execution vs tuple path
//	-exp 10  read latency under a durable (WAL group-commit) update stream
//	-exp 11  full-pipeline vectorization: OPTIONAL/UNION/aggregation/ORDER BY
//	-exp 12  scale-out: scatter-gather over partitioned shards
//	-exp a1  ablation: cost-based join ordering
//	-exp a2  ablation: sequence pattern detection
//	-exp a3  ablation: aggregate pushdown (AAPR)
//	-exp all everything, in order
//
// Scale knobs: -rtt (simulated per-SQL-statement round trip),
// -file-latency (simulated per-request latency of the file store in
// the parallelism sweep), -iters, -rows/-cols/-arrays
// (mini-benchmark), -cases/-realizations/-steps (BISTAB),
// -vec-docs/-batch-size (vectorized-execution comparison; a negative
// -batch-size disables vectorization, turning E9's batch column into a
// tuple-path control run).
//
// Retrieval tuning: -par pins the fetch worker pool width for the
// non-sweep experiments (0 = GOMAXPROCS; the SSDM_PARALLELISM
// environment variable is the fallback when the flag is absent) and
// -chunk-cache sets the shared chunk-cache byte budget.
//
// -json FILE additionally measures experiments 1, 8, 9, 10, 11 and 12
// and writes their cells as a machine-readable JSON report (see
// BENCH_pr4.json through BENCH_pr10.json).
//
// -metrics-addr starts the same HTTP observability listener as
// ssdm-server (/metrics, /debug/vars, /debug/pprof/*) for profiling a
// long benchmark run while it executes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/experiments"
	"scisparql/internal/metrics"
	"scisparql/internal/storage"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: 1..12, a1..a3, or all")
	rtt := flag.Duration("rtt", 200*time.Microsecond, "simulated SQL statement round trip")
	fileLatency := flag.Duration("file-latency", 200*time.Microsecond, "simulated per-request file store latency (E8, E12)")
	par := flag.Int("par", 0, "fetch worker pool width outside the E8 sweep (0 = GOMAXPROCS / $SSDM_PARALLELISM)")
	chunkCache := flag.Int64("chunk-cache", 0, "shared chunk cache byte budget (0 = default, negative = unlimited)")
	jsonOut := flag.String("json", "", "write a JSON report of experiments 1, 8, 9, 10, 11 and 12 to this file")
	iters := flag.Int("iters", 5, "timed iterations per cell")
	rows := flag.Int("rows", 256, "mini-benchmark array rows")
	cols := flag.Int("cols", 256, "mini-benchmark array cols")
	arrays := flag.Int("arrays", 4, "mini-benchmark array count")
	chunk := flag.Int("chunk", 8192, "chunk size in bytes")
	cases := flag.Int("cases", 8, "BISTAB parameter cases")
	realizations := flag.Int("realizations", 4, "BISTAB realizations per case")
	steps := flag.Int("steps", 2048, "BISTAB trajectory length")
	vecDocs := flag.Int("vec-docs", 1000, "E9 SP²Bench-shaped document count")
	batchSize := flag.Int("batch-size", 0, "E9 engine batch size (0 = default 1024, negative disables vectorization)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP observability listener while benchmarks run: /metrics, /debug/vars, /debug/pprof (empty = disabled)")
	flag.Parse()

	if *metricsAddr != "" {
		// An owned server over the registry's own mux, as in ssdm-server.
		srv := &http.Server{Addr: *metricsAddr, Handler: metrics.Default().DebugMux()}
		defer srv.Close()
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "ssdm-bench: metrics listener: %v\n", err)
			}
		}()
	}

	tmp, err := os.MkdirTemp("", "ssdm-bench")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)

	width := *par
	if width == 0 {
		if env := os.Getenv("SSDM_PARALLELISM"); env != "" {
			fmt.Sscanf(env, "%d", &width)
		}
	}
	storage.SetParallelism(width)
	if *chunkCache != 0 {
		array.SharedChunkCache().SetBudget(*chunkCache)
	}

	o := experiments.DefaultOptions(tmp)
	o.RoundTripDelay = *rtt
	o.FileLatency = *fileLatency
	o.Iters = *iters
	o.Workload.Rows = *rows
	o.Workload.Cols = *cols
	o.Workload.NumArrays = *arrays
	o.Workload.ChunkBytes = *chunk
	o.Bistab.Cases = *cases
	o.Bistab.Realizations = *realizations
	o.Bistab.Steps = *steps
	o.Bistab.ChunkBytes = *chunk
	o.VecDocs = *vecDocs
	o.BatchSize = *batchSize

	type entry struct {
		id string
		fn func() error
	}
	all := []entry{
		{"1", func() error { return experiments.E1(os.Stdout, o) }},
		{"2", func() error { return experiments.E2(os.Stdout, o) }},
		{"3", func() error { return experiments.E3(os.Stdout, o) }},
		{"4", func() error { return experiments.E4(os.Stdout, o) }},
		{"5", func() error { return experiments.E5(os.Stdout, o) }},
		{"6", func() error { return experiments.E6(os.Stdout, o) }},
		{"7", func() error { return experiments.E7(os.Stdout, o) }},
		{"8", func() error { return experiments.E8(os.Stdout, o) }},
		{"9", func() error { return experiments.E9(os.Stdout, o) }},
		{"10", func() error { return experiments.E10(os.Stdout, o) }},
		{"11", func() error { return experiments.E11(os.Stdout, o) }},
		{"12", func() error { return experiments.E12(os.Stdout, o) }},
		{"a1", func() error { return experiments.A1(os.Stdout, o) }},
		{"a2", func() error { return experiments.A2(os.Stdout, o) }},
		{"a3", func() error { return experiments.A3(os.Stdout, o) }},
	}

	want := strings.ToLower(*exp)
	matched := false
	for _, e := range all {
		if want != "all" && want != e.id {
			continue
		}
		matched = true
		if err := e.fn(); err != nil {
			fatalf("experiment %s: %v", e.id, err)
		}
		fmt.Println()
	}
	if !matched && *jsonOut == "" {
		fatalf("unknown experiment %q", *exp)
	}

	if *jsonOut != "" {
		rep, err := experiments.BuildReport(o)
		if err != nil {
			fatalf("json report: %v", err)
		}
		rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "JSON report written to %s\n", *jsonOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssdm-bench: "+format+"\n", args...)
	os.Exit(1)
}
