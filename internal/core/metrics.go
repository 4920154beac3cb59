package core

import "scisparql/internal/metrics"

// series is one instance-level metric: its kind, name, help and reader.
type series struct {
	kind       func(r *metrics.Registry, name, help string, fn func() float64)
	name, help string
	read       func() float64
}

// The series kinds: monotonic series are counters, sampled state is a
// gauge.
var (
	counter = (*metrics.Registry).CounterFunc
	gauge   = (*metrics.Registry).GaugeFunc
)

// series declares every instance-level metric of s exactly once.
// RegisterMetrics publishes the table on a registry (the server's
// /metrics); MetricsSnapshot reads the same table for the wire stats op
// and ssdmclient.Stats.
func (s *SSDM) series() []series {
	qc, cc, dict, vec, wal := s.QueryCacheStats, s.ChunkCacheStats, s.DictStats, s.VecStats, s.WALStats
	shards := func() ShardStats { ss, _ := s.ShardStats(); return ss }
	return []series{
		{gauge, "ssdm_triples", "Triples in the default graph.", func() float64 { return float64(s.Dataset.Default.Size()) }},

		{counter, "ssdm_query_cache_hits", "Compiled-query cache hits.", func() float64 { return float64(qc().Hits) }},
		{counter, "ssdm_query_cache_misses", "Compiled-query cache misses.", func() float64 { return float64(qc().Misses) }},
		{gauge, "ssdm_query_cache_entries", "Compiled queries resident in the cache.", func() float64 { return float64(qc().Entries) }},
		{gauge, "ssdm_query_cache_epoch", "Compiled-query cache invalidation generation.", func() float64 { return float64(qc().Epoch) }},

		{counter, "ssdm_chunk_cache_hits", "Chunk-cache hits.", func() float64 { return float64(cc().Hits) }},
		{counter, "ssdm_chunk_cache_misses", "Chunk-cache misses.", func() float64 { return float64(cc().Misses) }},
		{counter, "ssdm_chunk_cache_coalesced", "Chunk fetches coalesced onto another in-flight fetch.", func() float64 { return float64(cc().Coalesced) }},
		{counter, "ssdm_chunk_cache_evictions", "Chunk-cache evictions.", func() float64 { return float64(cc().Evictions) }},
		{gauge, "ssdm_chunk_cache_entries", "Chunks resident in the chunk cache.", func() float64 { return float64(cc().Entries) }},
		{gauge, "ssdm_chunk_cache_bytes", "Bytes resident in the chunk cache.", func() float64 { return float64(cc().Bytes) }},
		{gauge, "ssdm_chunk_cache_peak_bytes", "Chunk-cache residency high-water mark.", func() float64 { return float64(cc().PeakBytes) }},
		{gauge, "ssdm_chunk_cache_budget_bytes", "Configured chunk-cache byte budget.", func() float64 { return float64(cc().Budget) }},

		{gauge, "ssdm_dict_terms", "Terms interned in the dataset's dictionaries.", func() float64 { return float64(dict().Terms) }},
		{gauge, "ssdm_dict_bytes", "Approximate bytes held by term dictionaries.", func() float64 { return float64(dict().Bytes) }},
		{gauge, "ssdm_dict_generation", "Dictionary/graph mutation generation.", func() float64 { return float64(dict().Generation) }},

		{counter, "ssdm_vec_queries_total", "Query executions that used a vectorized plan.", func() float64 { return float64(vec().Queries) }},
		{counter, "ssdm_vec_batches_total", "Batches emitted by vectorized pipelines.", func() float64 { return float64(vec().Batches) }},
		{counter, "ssdm_vec_rows_total", "Rows emitted by vectorized pipelines.", func() float64 { return float64(vec().Rows) }},
		{counter, "ssdm_vec_agg_queries_total", "Aggregations folded batch-natively over ID columns.", func() float64 { return float64(vec().AggQueries) }},
		{counter, "ssdm_vec_agg_groups_total", "Groups produced by batch-native aggregation.", func() float64 { return float64(vec().AggGroups) }},
		{counter, "ssdm_vec_sort_queries_total", "Vectorized ORDER BY sorts over ID-resident keys.", func() float64 { return float64(vec().SortQueries) }},
		{counter, "ssdm_vec_topk_queries_total", "Vectorized sorts that used the bounded top-K heap.", func() float64 { return float64(vec().TopKQueries) }},

		{gauge, "ssdm_wal_enabled", "1 with a write-ahead log, else 0.", func() float64 { return b2f(wal().Enabled) }},
		{counter, "ssdm_wal_appends_total", "WAL records appended.", func() float64 { return float64(wal().Appends) }},
		{counter, "ssdm_wal_appended_bytes_total", "WAL frame bytes appended.", func() float64 { return float64(wal().AppendedBytes) }},
		{counter, "ssdm_wal_syncs_total", "WAL fsyncs issued.", func() float64 { return float64(wal().Syncs) }},
		{counter, "ssdm_wal_commits_total", "WAL commit acknowledgements.", func() float64 { return float64(wal().Commits) }},
		{counter, "ssdm_wal_grouped_commits_total", "WAL commits that rode another commit's fsync.", func() float64 { return float64(wal().GroupedCommit) }},
		{gauge, "ssdm_wal_segments", "Live WAL segment files.", func() float64 { return float64(wal().Segments) }},
		{gauge, "ssdm_wal_tail_lsn", "Next WAL append position.", func() float64 { return float64(wal().TailLSN) }},
		{gauge, "ssdm_wal_synced_lsn", "Everything below this LSN is durable.", func() float64 { return float64(wal().SyncedLSN) }},
		{gauge, "ssdm_wal_recovered_records", "Valid log records found when the WAL was opened.", func() float64 { return float64(wal().RecoveredRecords) }},
		{gauge, "ssdm_wal_recovery_seconds", "Time the last startup spent recovering the WAL.", func() float64 { return float64(wal().RecoveryNanos) / 1e9 }},

		{counter, "ssdm_storage_read_calls", "Back-end chunk read calls (0 when resident-only).", func() float64 {
			if b, ok := s.Backend().(interface{ ReadCallCount() int64 }); ok {
				return float64(b.ReadCallCount())
			}
			return 0
		}},
		{gauge, "ssdm_storage_inflight_peak", "High-water mark of concurrent back-end reads.", func() float64 {
			if b, ok := s.Backend().(interface{ InflightPeak() int64 }); ok {
				return float64(b.InflightPeak())
			}
			return 0
		}},

		{gauge, "ssdm_shard_topology", "Shards in the coordinator's topology.", func() float64 { return float64(shards().Shards) }},
		{counter, "ssdm_shard_pushdown_queries_total", "Queries pushed down to the shards.", func() float64 { return float64(shards().PushdownQueries) }},
		{counter, "ssdm_shard_gather_queries_total", "Queries answered by gathering triples.", func() float64 { return float64(shards().GatherQueries) }},
		{counter, "ssdm_shard_scatters_total", "Scatter fan-outs issued.", func() float64 { return float64(shards().Scatters) }},
		{counter, "ssdm_shard_errors_total", "Failed shard requests.", func() float64 { return float64(shards().Errors) }},
		{counter, "ssdm_shard_calls_total", "Requests sent to shards, summed.", func() float64 { return s.sumShards(shardCalls) }},
		{counter, "ssdm_shard_rows_total", "Rows and triples shards returned, summed.", func() float64 { return s.sumShards(shardRows) }},
	}
}

func shardCalls(c ShardCounters) int64  { return c.Calls }
func shardErrors(c ShardCounters) int64 { return c.Errors }
func shardRows(c ShardCounters) int64   { return c.Rows }

// perShardSeries declares the coordinator's per-shard breakdown:
// counter families labelled shard="<name>", empty on single-node
// instances.
var perShardSeries = []struct {
	name, help string
	read       func(ShardCounters) int64
}{
	{"ssdm_shard_peer_calls_total", "Requests the coordinator sent to each shard.", shardCalls},
	{"ssdm_shard_peer_errors_total", "Failed requests to each shard.", shardErrors},
	{"ssdm_shard_peer_rows_total", "Rows and triples each shard returned to the coordinator.", shardRows},
}

// RegisterMetrics publishes the instance's series on r. Registering a
// second instance on the same registry replaces the readers, so a
// registry shared by several instances exports the last one
// registered.
func (s *SSDM) RegisterMetrics(r *metrics.Registry) {
	for _, m := range s.series() {
		m.kind(r, m.name, m.help, m.read)
	}
	for _, m := range perShardSeries {
		read := m.read
		r.CounterFuncVec(m.name, m.help, "shard", func() []metrics.Sample {
			ss, _ := s.ShardStats()
			out := make([]metrics.Sample, len(ss.PerShard))
			for i, c := range ss.PerShard {
				out[i] = metrics.Sample{Label: c.Name, Value: float64(read(c))}
			}
			return out
		})
	}
}

// MetricsSnapshot returns the current value of every instance series,
// keyed as in the /metrics exposition (labelled series carry their
// label set in the key). It reads this instance alone, whatever other
// instances share a registry with it.
func (s *SSDM) MetricsSnapshot() map[string]float64 {
	r := metrics.NewRegistry()
	s.RegisterMetrics(r)
	return r.Snapshot()
}

func (s *SSDM) sumShards(read func(ShardCounters) int64) float64 {
	ss, _ := s.ShardStats()
	var n int64
	for _, c := range ss.PerShard {
		n += read(c)
	}
	return float64(n)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
