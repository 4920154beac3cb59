package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	// Re-registering the same name returns the same counter.
	if r.Counter("test_total", "help") != c {
		t.Error("re-registration returned a different counter")
	}

	cv := r.CounterVec("test_ops_total", "help", "op")
	cv.With("query").Add(2)
	cv.With("update").Inc()
	cv.With("query").Inc()
	if got := cv.With("query").Value(); got != 3 {
		t.Errorf(`With("query") = %d, want 3`, got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := h.Sum(); got != 55.55 {
		t.Errorf("Sum = %v, want 55.55", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.").Add(7)
	r.CounterVec("app_ops_total", "Ops by kind.", "op").With("query").Add(3)
	r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1}).Observe(0.5)
	r.GaugeFunc("app_temperature", "Current value.", func() float64 { return 21.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		"# HELP app_requests_total Total requests.",
		"# TYPE app_requests_total counter",
		"app_requests_total 7",
		`app_ops_total{op="query"} 3`,
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 0`,
		`app_latency_seconds_bucket{le="1"} 1`,
		`app_latency_seconds_bucket{le="+Inf"} 1`,
		"app_latency_seconds_sum 0.5",
		"app_latency_seconds_count 1",
		"# TYPE app_temperature gauge",
		"app_temperature 21.5",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "help").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

// TestConcurrentUse drives counters, histograms and scrapes from many
// goroutines at once; run under -race this verifies the registry is
// race-clean.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "help")
	cv := r.CounterVec("cc_ops_total", "help", "op")
	h := r.Histogram("cc_seconds", "help", DefBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				cv.With([]string{"a", "b", "c"}[n%3]).Inc()
				h.Observe(float64(j) / 1000)
				if j%100 == 0 {
					// Re-registering a func series (a second server
					// on a shared registry) races scrapes and snapshots.
					r.CounterFunc("cc_reads_total", "help", func() float64 { return float64(n) })
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Errorf("cc_total = %d, want 4000", c.Value())
	}
	if h.Count() != 4000 {
		t.Errorf("cc_seconds count = %d, want 4000", h.Count())
	}
}

func TestFuncSeriesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Total requests.").Add(3)
	r.CounterVec("app_ops_total", "Ops by kind.", "op").With("query").Add(2)
	r.Histogram("app_latency_seconds", "Latency.", []float64{1}).Observe(0.5)
	r.GaugeFunc("app_temperature", "Current value.", func() float64 { return 21.5 })
	r.CounterFunc("app_reads_total", "Reads.", func() float64 { return 1 })
	// Re-registering a func series swaps its reader.
	r.CounterFunc("app_reads_total", "Reads.", func() float64 { return 2e6 })
	r.CounterFuncVec("app_peer_rows_total", "Rows per peer.", "peer", func() []Sample {
		return []Sample{{Label: "a", Value: 4}, {Label: "b", Value: 5}}
	})

	want := map[string]float64{
		"app_requests_total":            3,
		`app_ops_total{op="query"}`:     2,
		"app_latency_seconds_sum":       0.5,
		"app_latency_seconds_count":     1,
		"app_temperature":               21.5,
		"app_reads_total":               2e6,
		`app_peer_rows_total{peer="a"}`: 4,
		`app_peer_rows_total{peer="b"}`: 5,
	}
	got := r.Snapshot()
	if len(got) != len(want) {
		t.Errorf("snapshot has %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("snapshot[%s] = %v, want %v", k, got[k], v)
		}
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE app_reads_total counter",
		"app_reads_total 2000000",
		"# TYPE app_peer_rows_total counter",
		`app_peer_rows_total{peer="b"} 5`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}
