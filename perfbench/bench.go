package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/core"
	"scisparql/internal/engine"
)

// bench runs one workload: set-up (repeated for setup_s), warm-up, the
// measured window(s), the answer checks and the metric computation.
func bench(w *workload, seed int64, window time.Duration, traced bool) (*report, error) {
	in := makeInputs(w, seed)
	tmpRoot := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	var (
		inst   *instance
		setups []float64
		spent  time.Duration
	)
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	more := func() bool {
		n := len(setups)
		if traced {
			return n < 1
		}
		return n < minSetups || (n < maxSetups && spent < setupBudget)
	}
	for more() {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		runtime.GC()
		dir, err := os.MkdirTemp(tmpRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		inst, err = w.setup(in, dir, traced)
		spent += time.Since(t0)
		took := time.Since(t0) - inst.gen
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	// Write the new stores back now, not in the measured window.
	syscall.Sync()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	d := newRunner(w, in, inst)
	d.phase(warmUp, false, false)

	rep := &report{Meta: runMeta(w, seed, window, traced), traced: traced}
	var plain, tracedWin timeWindow
	if !traced {
		plain.start, plain.end = d.phase(window, true, false)
	} else {
		plain.start, plain.end = d.phase(window/2, true, false)
		before := takeSnap(inst)
		if inst.backend != nil {
			inst.backend.take()
		}
		if inst.legs != nil {
			inst.legs.take()
		}
		tracedWin.start, tracedWin.end = d.phase(window/2, true, true)
		after := takeSnap(inst)
		rep.tracer = &tracer{epoch: plain.start}
		probe, err := d.encodeProbe(rep.tracer)
		if err != nil {
			return nil, fmt.Errorf("encode probe: %w", err)
		}
		rep.PerLayer, rep.LayerExtra = d.layerMetrics(before, after, plain, tracedWin, probe, rep)
	}

	cr, err := d.check()
	if err != nil {
		return nil, err
	}
	var all []record
	for _, cs := range d.clients {
		all = append(all, cs.recs...)
	}
	rep.Attempted = len(all)
	rep.Failed = cr.failed(all)
	rep.Correct = cr.ok() && rep.Failed == 0
	rep.Checks = map[string]any{"answers_checked": cr.checked, "oracle_compared": cr.compared, "failed": rep.Failed}
	for k, why := range cr.bad {
		rep.Failures = append(rep.Failures, fmt.Sprintf("%.120s: %s", k.text, why))
	}
	rep.Failures = append(rep.Failures, cr.notes...)
	for _, r := range all {
		if r.err != "" && len(rep.Failures) < 20 {
			rep.Failures = append(rep.Failures, r.err)
		}
	}
	rep.EndToEnd, rep.Extra = d.endToEnd(plain, setups, heapMB, rep)
	return rep, nil
}

type timeWindow struct{ start, end time.Time }

func (t timeWindow) seconds() float64 { return t.end.Sub(t.start).Seconds() }

// windowRecords returns the records measured in the given mode.
func (d *runner) windowRecords(traced bool) []record {
	var out []record
	for _, cs := range d.clients {
		for _, r := range cs.recs {
			if r.timed && r.traced == traced && r.err == "" {
				out = append(out, r)
			}
		}
	}
	return out
}

func latMS(r record) float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// classLatencies splits successful records' latencies (ms) by class.
func classLatencies(recs []record) [nClasses][]float64 {
	var out [nClasses][]float64
	for _, r := range recs {
		c := clsWrite
		if r.q != nil {
			c = r.q.class
		}
		out[c] = append(out[c], latMS(r))
	}
	return out
}

// perSecond buckets the completions of the given classes into
// one-second bins of the window.
func perSecond(recs []record, win timeWindow, write bool) []float64 {
	n := int(win.seconds())
	if n < 1 {
		n = 1
	}
	bins := make([]float64, n)
	for _, r := range recs {
		if (r.upd != nil) != write {
			continue
		}
		i := int(r.end.Sub(win.start) / time.Second)
		if i >= 0 && i < n {
			bins[i]++
		}
	}
	return bins
}

func latencyMetric(name string, samples []float64, q float64) metric {
	return metric{Name: name, Unit: "ms", Value: p(samples, q), Dist: summarize(samples)}
}

// endToEnd computes the untraced window's metrics: the end-to-end set
// and the metrics reported beside it. Write metrics exist only where
// there are writes, so they are beside the set rather than in it.
func (d *runner) endToEnd(win timeWindow, setups []float64, heapMB float64, rep *report) (e2e, extra []metric) {
	recs := d.windowRecords(false)
	lat := classLatencies(recs)
	secs := win.seconds()
	reads := len(lat[clsShort]) + len(lat[clsLong])
	verified := 1 - ratio(float64(rep.Failed), float64(rep.Attempted))
	e2e = []metric{
		{Name: "setup_s", Unit: "s", Value: p(setups, 0.5), Dist: summarize(setups)},
		{Name: "heap_mb", Unit: "MiB", Value: heapMB, Dist: summarize([]float64{heapMB})},
		{Name: "read_qps", Unit: "1/s", Value: float64(reads) / secs, Dist: summarize(perSecond(recs, win, false))},
		latencyMetric("short_p50_ms", lat[clsShort], 0.5),
		latencyMetric("long_p50_ms", lat[clsLong], 0.5),
		latencyMetric("long_p90_ms", lat[clsLong], 0.9),
		{Name: "verified_share", Unit: "share", Value: verified, Dist: summarize([]float64{verified})},
	}
	// The short tail is made of reads that met a long read, a GC cycle or
	// a write; how often that happens swings too much from run to run
	// for a bound, so short_p90_ms is reported beside the set.
	extra = []metric{
		latencyMetric("short_p90_ms", lat[clsShort], 0.9),
		{Name: "failed_share", Unit: "share", Value: 1 - verified, Dist: summarize([]float64{1 - verified})},
	}
	extra = append(extra, kindLatencies(recs)...)
	if d.w.writer {
		extra = append(extra,
			metric{Name: "write_ops_s", Unit: "1/s", Value: float64(len(lat[clsWrite])) / secs, Dist: summarize(perSecond(recs, win, true))},
			latencyMetric("write_p50_ms", lat[clsWrite], 0.5),
			latencyMetric("write_p90_ms", lat[clsWrite], 0.9))
	}
	return e2e, extra
}

// snap holds the program's own counters at a point in time.
type snap struct {
	qc    core.CacheStats
	cc    array.ChunkCacheStats
	wal   core.WALStats
	gen   uint64
	shard core.ShardStats
}

func takeSnap(inst *instance) snap {
	s := snap{
		qc:  inst.db.QueryCacheStats(),
		cc:  inst.db.ChunkCacheStats(),
		wal: inst.db.WALStats(),
		gen: inst.db.Dataset.Default.Generation(),
	}
	s.shard, _ = inst.db.ShardStats()
	return s
}

// encodeProbe times engine.JSONObject plus the JSON encode of a
// sample of the traced window's read texts, each run directly on the
// served instance.
func (d *runner) encodeProbe(tr *tracer) ([]float64, error) {
	const probes = 32
	seen := map[string]bool{}
	var durs []float64
	for _, r := range d.windowRecords(true) {
		if r.q == nil || seen[r.q.text] || len(seen) == probes {
			continue
		}
		seen[r.q.text] = true
		res, err := d.inst.db.QueryLimits(context.Background(), r.q.text, engine.Limits{})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		obj, err := engine.JSONObject(res)
		if err == nil {
			err = json.NewEncoder(io.Discard).Encode(obj)
		}
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add(0, 0, "engine.encode", tr.ns(t0), tr.ns(t1))
		durs = append(durs, float64(t1.Sub(t0)))
	}
	return durs, nil
}

// kindLatencies reports the median latency of each query template, so
// a move in a class percentile can be traced to the template behind it.
func kindLatencies(recs []record) []metric {
	byKind := map[string][]float64{}
	var kinds []string
	for _, r := range recs {
		if r.q == nil {
			continue
		}
		k := className[r.q.class] + "." + r.q.kind
		if _, ok := byKind[k]; !ok {
			kinds = append(kinds, k)
		}
		byKind[k] = append(byKind[k], latMS(r))
	}
	sort.Strings(kinds)
	var out []metric
	for _, k := range kinds {
		out = append(out, latencyMetric("kind."+k+"_p50_ms", byKind[k], 0.5))
	}
	return out
}
