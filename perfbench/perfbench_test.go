package main

import (
	"hash/maphash"
	"math"
	"math/rand"
	"testing"
)

func TestPercentileFixedInputs(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.9, 9.1}, {1, 10},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	d := summarize([]float64{10, 1, 4, 7})
	if d.N != 4 || d.Q1 != 3.25 || d.Median != 5.5 || d.Q3 != 7.75 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestSelfTimeFixedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "httpfront", Start: 10, End: 90},
		// Two overlapping children and one sticking out of the parent.
		{ID: 3, Parent: 2, Name: "core.query", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "shard.leg", Start: 40, End: 60},
		{ID: 5, Parent: 2, Name: "shard.leg", Start: 85, End: 120},
		{ID: 6, Parent: 3, Name: "engine.exec", Start: 20, End: 50},
	}
	got := selfTimes(spans)
	want := map[string][]float64{
		"client":      {20},      // 100 - 80
		"httpfront":   {80 - 45}, // covered: [20,60) and [85,90)
		"core.query":  {0},       // fully covered by engine.exec
		"shard.leg":   {20, 35},  // leaves
		"engine.exec": {30},
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d]: self time %v, want %v", name, i, g[i], w[i])
			}
		}
	}
}

func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	q := &query{class: clsShort, kind: "doc", rows: 2, text: "SELECT"}
	good := []byte(`{"head":{"vars":["p","o"]},"results":{"bindings":[` +
		`{"o":{"type":"uri","value":"http://bench/Article"},"p":{"type":"uri","value":"http://bench/type"}},` +
		`{"o":{"type":"literal","value":"Title 0"},"p":{"type":"uri","value":"http://bench/title"}}]}}`)
	// The same answer with its second row cut off.
	corrupt := []byte(`{"head":{"vars":["p","o"]},"results":{"bindings":[` +
		`{"o":{"type":"uri","value":"http://bench/Article"},"p":{"type":"uri","value":"http://bench/type"}}]}}`)
	if err := checkBody(&kept{q: q, body: good}); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	if err := checkBody(&kept{q: q, body: corrupt}); err == nil {
		t.Fatal("corrupted answer accepted")
	}

	d := &runner{hseed: maphash.MakeSeed(), clients: []*clientState{{bodies: map[bodyKey]*kept{}}}}
	cs := d.clients[0]
	recs := []record{{q: q}, {q: q}, {q: q}}
	d.keep(cs, &recs[0], q.text, good)
	d.keep(cs, &recs[1], q.text, corrupt)
	d.keep(cs, &recs[2], q.text, good)
	res := &checkResult{bad: map[bodyKey]string{}}
	for k, v := range cs.bodies {
		if err := checkBody(v); err != nil {
			res.bad[k] = err.Error()
		}
	}
	if n := res.failed(recs); n != 1 {
		t.Fatalf("failed = %d, want 1 (the corrupted answer)", n)
	}

	// A wrong array value is a failure too.
	vq := &query{class: clsShort, rows: 1, value: 12.5, isValue: true}
	body := []byte(`{"head":{"vars":["v"]},"results":{"bindings":[{"v":{"type":"literal","value":"12.625","datatype":"x"}}]}}`)
	if err := checkBody(&kept{q: vq, body: body}); err == nil {
		t.Fatal("wrong array value accepted")
	}
	// And an update acknowledged with the wrong count.
	upd := &pendingUpdate{affected: 4}
	if err := checkBody(&kept{upd: upd, body: []byte(`{"ok":true,"affected":3}`)}); err == nil {
		t.Fatal("wrong update acknowledgement accepted")
	}
}

func TestStripAnalyze(t *testing.T) {
	body := []byte(`{"analyze":{"plan_cached":false,"parse_ns":1500,"total_ns":9000,"rows":1,` +
		`"text":"phases: where=1µs aggregate=2.5µs project=3ms sort=0s\nmatching: calls=2 matched=7\nvectorized: batches=1 rows=1\n"},` +
		`"head":{"vars":["v"]},"results":{"bindings":[]}}`)
	an, rest, err := stripAnalyze(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != `{"head":{"vars":["v"]},"results":{"bindings":[]}}` {
		t.Errorf("rest = %s", rest)
	}
	if an.ParseNS != 1500 || an.TotalNS != 9000 || an.AggNS != 2500 || an.ProjNS != 3e6 ||
		an.SortNS != 0 || an.Matched != 7 || !an.Vectorized {
		t.Errorf("analyze = %+v", an)
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b := newBibModel(400, 5), newBibModel(400, 5)
	if a.turtle() != b.turtle() {
		t.Fatal("same seed gave different documents")
	}
	if newBibModel(400, 6).turtle() == a.turtle() {
		t.Fatal("different seeds gave the same document")
	}
	ra, rb := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if qa, qb := a.readQuery(ra, i%bibBlock), b.readQuery(rb, i%bibBlock); qa.text != qb.text || qa.rows != qb.rows {
			t.Fatalf("query %d differs: %q vs %q", i, qa.text, qb.text)
		}
	}
}

func TestArraySumsAreExact(t *testing.T) {
	m := &arrayModel{seed: 42}
	var total float64
	for r := 0; r < arrayDim; r++ {
		for c := 0; c < arrayDim; c++ {
			total += m.elem(3, r, c)
		}
	}
	// Summing in the opposite order must give the identical float.
	var rev float64
	for i := arrayDim*arrayDim - 1; i >= 0; i-- {
		rev += m.elem(3, i/arrayDim, i%arrayDim)
	}
	if total != rev {
		t.Fatalf("sum depends on order: %v vs %v", total, rev)
	}
}
