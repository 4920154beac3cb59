package main

import (
	"strings"
	"time"
)

// layerMetrics assembles the traced window's spans and computes the
// per-layer metrics, the layers' self times and the tracing overhead.
// The second list holds the p50 timings of events only some workloads
// have (updates, aggregation, sorting, chunk waits, storage reads, shard
// legs): with no events they would read a constant 0, so they go to the
// report and not to the result line.
func (d *runner) layerMetrics(before, after snap, plain, traced timeWindow, encode []float64, rep *report) (all, reportOnly []metric) {
	tr := rep.tracer
	recs := d.windowRecords(true)

	var (
		reads, writes                 int
		hfSelf, slowest               []float64
		parse, updates                []float64
		exec                          [nClasses][]float64
		where, agg, sort, proj, waits []float64
		parses, vectorized            int
		rows, bindings, matched       int64
		fetches, userBytes            int64
	)
	for _, r := range recs {
		if r.upd != nil {
			writes++
			updates = append(updates, float64(r.end.Sub(r.start)))
			userBytes += int64(len(r.upd.text))
			tr.add(0, 0, "core.update", tr.ns(r.start), tr.ns(r.end))
			continue
		}
		reads++
		an := r.an
		inCore := an.ParseNS + an.TotalNS
		hfSelf = append(hfSelf, float64(r.end.Sub(r.start).Nanoseconds()-inCore))
		if !an.PlanCached {
			parses++
			parse = append(parse, float64(an.ParseNS))
		}
		exec[r.q.class] = append(exec[r.q.class], float64(an.TotalNS))
		for _, ph := range []struct {
			ns  int64
			out *[]float64
		}{{an.WhereNS, &where}, {an.AggNS, &agg}, {an.SortNS, &sort}, {an.ProjNS, &proj}} {
			if ph.ns > 0 {
				*ph.out = append(*ph.out, float64(ph.ns))
			}
		}
		if an.Vectorized {
			vectorized++
		}
		rows += an.Rows
		bindings += an.Bindings
		matched += an.Matched
		fetches += an.ChunkFetch
		if an.ChunkFetch > 0 {
			waits = append(waits, float64(an.ChunkWaitNS))
		}
		if slow := d.addReadSpans(tr, r); slow > 0 {
			slowest = append(slowest, float64(slow))
		}
	}
	rep.SelfTimeUS = map[string]dist{}
	for name, ns := range selfTimes(tr.spans) {
		rep.SelfTimeUS[name] = summarize(scale(ns, 1e-3))
	}

	nreads, nwrites := float64(reads), float64(writes)
	qc := struct{ hits, misses float64 }{
		float64(after.qc.Hits - before.qc.Hits), float64(after.qc.Misses - before.qc.Misses)}
	cc := struct{ hits, misses, coalesced, evictions float64 }{
		float64(after.cc.Hits - before.cc.Hits), float64(after.cc.Misses - before.cc.Misses),
		float64(after.cc.Coalesced - before.cc.Coalesced), float64(after.cc.Evictions - before.cc.Evictions)}
	wal := struct{ syncs, bytes, grouped, commits float64 }{
		float64(after.wal.Syncs - before.wal.Syncs), float64(after.wal.AppendedBytes - before.wal.AppendedBytes),
		float64(after.wal.GroupedCommit - before.wal.GroupedCommit), float64(after.wal.Commits - before.wal.Commits)}
	var shardCalls, shardRows float64
	for i, ps := range after.shard.PerShard {
		shardCalls += float64(ps.Calls - before.shard.PerShard[i].Calls)
		shardRows += float64(ps.Rows - before.shard.PerShard[i].Rows)
	}
	pushdown := float64(after.shard.PushdownQueries - before.shard.PushdownQueries)
	gather := float64(after.shard.GatherQueries - before.shard.GatherQueries)
	var dictTerms, dictBytes float64
	for _, db := range d.inst.dbs {
		ds := db.DictStats()
		dictTerms += float64(ds.Terms)
		dictBytes += float64(ds.Bytes)
	}
	var st readCounters
	if d.inst.backend != nil {
		st = d.inst.backend.take()
	}
	var legs []float64
	if d.inst.legs != nil {
		legs = d.inst.legs.take()
	}

	plainLat := classLatencies(d.windowRecords(false))
	tracedLat := classLatencies(recs)
	plainQPS := float64(len(plainLat[clsShort])+len(plainLat[clsLong])) / plain.seconds()
	tracedQPS := float64(len(tracedLat[clsShort])+len(tracedLat[clsLong])) / traced.seconds()

	us := func(name string, ns []float64) metric {
		return metric{Name: name, Unit: "us", Value: p(ns, 0.5) / 1e3, Dist: summarize(scale(ns, 1e-3))}
	}
	one := func(name, unit string, v float64) metric {
		return metric{Name: name, Unit: unit, Value: v, Dist: summarize([]float64{v})}
	}
	rejected := 0
	for _, cs := range d.clients {
		for _, r := range cs.recs {
			if r.traced && r.timed && strings.HasPrefix(r.err, "status 429") {
				rejected++
			}
		}
	}
	reportOnly = []metric{
		us("core.update_us_p50", updates),
		us("engine.agg_us_p50", agg),
		us("engine.sort_us_p50", sort),
		us("array.chunk_wait_us_p50", waits),
		us("storage.read_us_p50", st.durs),
		us("shard.leg_us_p50", legs),
		us("shard.slowest_leg_us_p50", slowest),
	}
	return []metric{
		us("httpfront.self_us_p50", hfSelf),
		one("httpfront.rejected_share", "share", ratio(float64(rejected), nreads+nwrites+float64(rejected))),
		one("core.qcache_hit_ratio", "ratio", ratio(qc.hits, qc.hits+qc.misses)),
		one("core.load_s", "s", d.inst.load.Seconds()),
		us("sparql.parse_us_p50", parse),
		one("sparql.parses_per_query", "ratio", ratio(float64(parses), nreads)),
		one("turtle.parse_s", "s", d.inst.parse.Seconds()),
		us("engine.exec_us_p50.short", exec[clsShort]),
		us("engine.exec_us_p50.long", exec[clsLong]),
		us("engine.where_us_p50", where),
		us("engine.proj_us_p50", proj),
		one("engine.bindings_per_row", "ratio", ratio(float64(bindings), float64(rows))),
		one("engine.matched_per_row", "ratio", ratio(float64(matched), float64(rows))),
		one("engine.vectorized_share", "share", ratio(float64(vectorized), nreads)),
		us("engine.encode_us_p50", encode),
		one("rdf.generations_per_update", "ratio", ratio(float64(after.gen-before.gen), nwrites)),
		one("rdf.dict_terms", "count", dictTerms),
		one("rdf.dict_bytes", "bytes", dictBytes),
		one("array.cache_hit_ratio", "ratio", ratio(cc.hits, cc.hits+cc.misses+cc.coalesced)),
		one("array.evictions_per_query", "ratio", ratio(cc.evictions, nreads)),
		one("array.coalesced_per_query", "ratio", ratio(cc.coalesced, nreads)),
		one("array.chunk_fetches_per_query", "ratio", ratio(float64(fetches), nreads)),
		one("storage.read_calls_per_query", "ratio", ratio(float64(st.calls), nreads)),
		one("storage.chunks_per_call", "ratio", ratio(float64(st.chunks), float64(st.calls))),
		one("storage.bytes_per_query", "bytes", ratio(float64(st.bytes), nreads)),
		one("wal.syncs_per_update", "ratio", ratio(wal.syncs, nwrites)),
		one("wal.bytes_per_user_byte", "ratio", ratio(wal.bytes, float64(userBytes))),
		one("wal.grouped_share", "share", ratio(wal.grouped, wal.commits)),
		one("shard.calls_per_query", "ratio", ratio(shardCalls, nreads)),
		one("shard.rows_per_result_row", "ratio", ratio(shardRows, float64(rows))),
		one("shard.pushdown_share", "share", ratio(pushdown, pushdown+gather)),
		one("trace.overhead_short_p50_us", "us", (p(tracedLat[clsShort], 0.5)-p(plainLat[clsShort], 0.5))*1e3),
		one("trace.overhead_read_qps_share", "share", ratio(plainQPS-tracedQPS, plainQPS)),
		one("trace.spans", "count", float64(len(tr.spans))),
	}, reportOnly
}

// addReadSpans records one traced read's spans: the client round trip,
// the front door's handler, and — reconstructed from the EXPLAIN
// ANALYZE durations, starting where the front finished reading the
// request — the core call with its sparql parse and engine execution
// (phases laid end to end), plus the measured shard legs and storage
// reads. It returns the read's slowest shard leg.
func (d *runner) addReadSpans(tr *tracer, r record) time.Duration {
	id := r.reqID
	client := tr.add(0, id, "client", tr.ns(r.start), tr.ns(r.end))
	rec := d.inst.ep.traced.take(id)
	if rec == nil {
		return 0
	}
	front := tr.add(client, id, "httpfront", tr.ns(rec.start), tr.ns(rec.end))
	at := rec.bodyRead
	if at.IsZero() {
		at = rec.start
	}
	t := tr.ns(at)
	an := r.an
	coreID := tr.add(front, id, "core.query", t, t+an.ParseNS+an.TotalNS)
	tr.add(coreID, id, "sparql.parse", t, t+an.ParseNS)
	t += an.ParseNS
	exec := tr.add(coreID, id, "engine.exec", t, t+an.TotalNS)
	end := t + an.TotalNS
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"engine.where", an.WhereNS}, {"engine.agg", an.AggNS}, {"engine.sort", an.SortNS}, {"engine.proj", an.ProjNS}} {
		if ph.ns > 0 {
			tr.add(exec, id, ph.name, t, min(t+ph.ns, end))
			t = min(t+ph.ns, end)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var slowest time.Duration
	for _, leg := range rec.legs {
		tr.add(exec, id, "shard.leg", tr.ns(leg[0]), tr.ns(leg[1]))
		slowest = max(slowest, leg[1].Sub(leg[0]))
	}
	for _, rd := range rec.reads {
		tr.add(exec, id, "storage.read", tr.ns(rd[0]), tr.ns(rd[1]))
	}
	return slowest
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
