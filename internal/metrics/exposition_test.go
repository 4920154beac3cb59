package metrics_test

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/httpfront"
	"scisparql/internal/metrics"
	"scisparql/internal/server"
	"scisparql/internal/shard"
	"scisparql/internal/ssdmclient"
)

// serverScrape renders the registry of a fully armed server: a WAL, a
// two-shard coordinator and the HTTP front door, with one request of
// each kind served so every family has samples.
func serverScrape(t *testing.T) string {
	t.Helper()
	opts := core.DefaultOptions()
	opts.WALDir = t.TempDir()
	opts.WALSync = "none"
	db := core.OpenWith(opts)
	coord, err := shard.New(db, []shard.Shard{
		shard.NewLocalShard("local0", core.Open()),
		shard.NewLocalShard("local1", core.Open()),
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SetDistributor(coord)
	if _, err := db.EnableWAL(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })

	reg := metrics.NewRegistry()
	srv := server.New(db)
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
	if _, err := cl.Update(`INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> . <http://ex/b> <http://ex/p> <http://ex/c> }`); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(`SELECT ?x ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }`); err != nil {
		t.Fatal(err)
	}

	front := httpfront.New(httpfront.NewTenants(db))
	front.Metrics = reg
	front.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/sparql?query=ASK%7B%7D", nil))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// checkExposition validates a Prometheus text exposition and returns
// its families with their declared types: every family has # HELP and
// # TYPE before its samples, only counters end in _total, and histogram
// buckets are cumulative with +Inf equal to _count.
func checkExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{}
	helped := map[string]bool{}
	buckets := map[string][]float64{}
	counts := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				helped[f[2]] = true
			case "TYPE":
				types[f[2]] = f[3]
				if strings.HasSuffix(f[2], "_total") && f[3] != "counter" {
					t.Errorf("%s is a %s but ends in _total", f[2], f[3])
				}
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("sample %q: %v", line, err)
		}
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family && types[base] == "histogram" {
				family = base
				switch suffix {
				case "_bucket":
					buckets[base] = append(buckets[base], v)
				case "_count":
					counts[base] = v
				}
			}
		}
		if !helped[family] || types[family] == "" {
			t.Errorf("sample %q precedes # HELP/# TYPE of %s", line, family)
		}
	}
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		bs := buckets[name]
		if len(bs) == 0 {
			t.Errorf("histogram %s has no buckets", name)
			continue
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Errorf("histogram %s buckets not cumulative: %v", name, bs)
			}
		}
		if inf := bs[len(bs)-1]; inf != counts[name] {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", name, inf, counts[name])
		}
	}
	return types
}

func TestServerExpositionFormat(t *testing.T) {
	body := serverScrape(t)
	types := checkExposition(t, body)
	for _, name := range []string{"ssdm_vec_queries_total", "ssdm_wal_syncs_total", "ssdm_shard_peer_rows_total", "ssdm_query_duration_seconds"} {
		if types[name] == "" {
			t.Errorf("family %s not exported", name)
		}
	}
	if t.Failed() {
		t.Log(body)
	}
}

// TestMetricReferenceDrift: the metric reference in docs/OPERATIONS.md
// lists exactly the families a fully armed server exports, each with
// the type the exposition declares.
func TestMetricReferenceDrift(t *testing.T) {
	exported := checkExposition(t, serverScrape(t))
	documented := documentedMetrics(t, "../../docs/OPERATIONS.md")
	for name, typ := range exported {
		switch doc, ok := documented[name]; {
		case !ok:
			t.Errorf("%s (%s) is exported but missing from the OPERATIONS.md metric reference", name, typ)
		case doc != typ:
			t.Errorf("%s is exported as a %s but documented as a %s", name, typ, doc)
		}
	}
	for name := range documented {
		if _, ok := exported[name]; !ok {
			t.Errorf("%s is documented but not exported", name)
		}
	}
}

// documentedMetrics parses the "### Metric reference" table: every
// backticked name in a row's first cell (label sets stripped) maps to
// the row's type cell.
func documentedMetrics(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "### Metric reference\n")
	if !ok {
		t.Fatalf("%s: no metric reference section", path)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	name := regexp.MustCompile("`([a-z_]+)(\\{[a-z_]+\\})?`")
	out := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		typ := strings.TrimSpace(cells[2])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			out[m[1]] = typ
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: metric reference table is empty", path)
	}
	return out
}
