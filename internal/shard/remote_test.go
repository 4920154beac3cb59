package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
	"scisparql/internal/server"
	"scisparql/internal/ssdmclient"
	"scisparql/internal/storage"
)

// remoteCluster starts n in-process SSDM servers and builds a
// coordinator over remote shards dialed through the wire protocol —
// the same path a real multi-host deployment uses.
func remoteCluster(t *testing.T, n int) (*core.SSDM, *Coordinator) {
	t.Helper()
	node := core.Open()
	shards := make([]Shard, n)
	for i := range shards {
		db := core.Open()
		db.AttachBackend(storage.NewMemory())
		srv := server.New(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sh, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = sh
	}
	c, err := New(node, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	node.SetDistributor(c)
	return node, c
}

func TestRemoteShardsRoundTrip(t *testing.T) {
	node, _ := remoteCluster(t, 3)

	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA {
		ex:r1 ex:v 1 ; ex:tag "a" .
		ex:r2 ex:v 2 ; ex:tag "b" .
		ex:r3 ex:v 3 ; ex:tag "a" .
		ex:r4 ex:v 4 .
	}`); err != nil {
		t.Fatal(err)
	}

	// Pushdown over the wire: partial aggregates merge.
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(?v) AS ?t) (COUNT(?s) AS ?n) WHERE { ?s ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(10) || res.Get(0, "n") != rdf.Integer(4) {
		t.Fatalf("aggregate over remote shards: %v", res.Rows)
	}

	// Gather over the wire: the scan masks stream triples back.
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT ?s ?u WHERE { ?s ex:tag ?g . ?u ex:tag ?g . FILTER(?s != ?u) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("self-join over remote shards: %v", res.Rows)
	}

	// Distributed Turtle load with arrays ships them over the array API.
	if err := node.LoadTurtle(`@prefix ex: <http://ex/> .
ex:m1 ex:data (1 2 3 4) . ex:m2 ex:data (5 6) .`, ""); err != nil {
		t.Fatal(err)
	}
	res, err = node.Query(`PREFIX ex: <http://ex/> SELECT (SUM(asum(?a)) AS ?t) WHERE { ?s ex:data ?a }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "t") != rdf.Integer(21) {
		t.Fatalf("array sum over remote shards: %v", res.Rows)
	}
}

func TestRemoteShardDownFailsTyped(t *testing.T) {
	node, c := remoteCluster(t, 2)
	if _, err := node.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:r1 ex:v 1 . ex:r2 ex:v 2 }`); err != nil {
		t.Fatal(err)
	}
	// Kill one shard's connection; the next scatter must fail typed,
	// not hang or return partial rows.
	c.shards[1].Close()
	_, err := node.Query(`PREFIX ex: <http://ex/> SELECT (COUNT(?s) AS ?n) WHERE { ?s ex:v ?v }`)
	if !errors.Is(err, core.ErrShardUnavailable) {
		t.Fatalf("query after shard close = %v, want ErrShardUnavailable", err)
	}
}

func TestRemoteGroundSubjectRoutesOnce(t *testing.T) {
	node, c := remoteCluster(t, 4)
	for i := 0; i < 8; i++ {
		if _, err := node.Update(fmt.Sprintf(`PREFIX ex: <http://ex/> INSERT DATA { ex:g%d ex:v %d }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Stats()
	res, err := node.Query(`PREFIX ex: <http://ex/> SELECT ?v WHERE { ex:g3 ex:v ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "v") != rdf.Integer(3) {
		t.Fatalf("ground-subject result %v", res.Rows)
	}
	after := c.Stats()
	var delta int64
	for i := range after.PerShard {
		delta += after.PerShard[i].Calls - before.PerShard[i].Calls
	}
	if delta != 1 {
		t.Fatalf("ground-subject query issued %d shard calls, want exactly 1", delta)
	}
}

// TestStatsOpPerShardBreakdown: a coordinator's per-shard calls, errors
// and rows reach both the stats op and /metrics as shard-labelled
// series carrying the coordinator's own counts.
func TestStatsOpPerShardBreakdown(t *testing.T) {
	node, c := cluster(t, 2)
	if _, err := node.Update(corpusData); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Query(`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`); err != nil {
		t.Fatal(err)
	}
	srv := server.New(node)
	reg := metrics.NewRegistry()
	srv.Metrics = reg
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := ssdmclient.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	want := c.Stats()
	var rows int64
	for _, ps := range want.PerShard {
		rows += ps.Rows
		for series, v := range map[string]int64{
			"ssdm_shard_peer_calls_total":  ps.Calls,
			"ssdm_shard_peer_errors_total": ps.Errors,
			"ssdm_shard_peer_rows_total":   ps.Rows,
		} {
			key := fmt.Sprintf("%s{shard=%q}", series, ps.Name)
			if st[key] != float64(v) {
				t.Errorf("stats %s = %v, want %d", key, st[key], v)
			}
			if line := fmt.Sprintf("%s %d\n", key, v); !strings.Contains(scrape, line) {
				t.Errorf("/metrics missing %q", line)
			}
		}
	}
	if rows == 0 || st["ssdm_shard_rows_total"] != float64(rows) || st["ssdm_shard_topology"] != 2 {
		t.Errorf("stats rows_total %v topology %v, want %d and 2", st["ssdm_shard_rows_total"], st["ssdm_shard_topology"], rows)
	}
}
