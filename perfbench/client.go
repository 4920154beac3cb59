package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scisparql/internal/engine"
)

// The closed loop: each client sends its next request only after the
// previous answer's last byte arrived. Answers are checked
// after the run (verify.go); inside the loop a response is only hashed
// and, the first time its text and hash are seen, kept for checking.

// record is one attempted operation.
type record struct {
	q      *query
	upd    *pendingUpdate
	start  time.Time
	end    time.Time
	err    string // transport error or non-200 status; empty on success
	digest uint64
	timed  bool // completed inside a measured window
	traced bool

	reqID int64
	an    *analyzeInfo // traced reads
	// affected is the count a traced (direct) update returned.
	affected int
}

type bodyKey struct {
	text   string
	digest uint64
}

// kept is a response body kept for checking.
type kept struct {
	q    *query
	upd  *pendingUpdate
	body []byte
}

// clientState is one client's generator and log.
type clientState struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	stream *updateStream // writer only
	deck   []int         // slots left in the current block
	recs   []record
	bodies map[bodyKey]*kept
}

// runner runs the clients against one instance.
type runner struct {
	w       *workload
	in      *inputs
	inst    *instance
	clients []*clientState
	hseed   maphash.Seed
	nextID  atomic.Int64
}

func newRunner(w *workload, in *inputs, inst *instance) *runner {
	d := &runner{w: w, in: in, inst: inst, hseed: maphash.MakeSeed()}
	for i := 0; i < w.clients; i++ {
		rng := rand.New(rand.NewSource(in.seed*1000003 + int64(i) + 1))
		cs := &clientState{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, nArrays-1), bodies: map[bodyKey]*kept{}}
		if w.writer && i == 0 {
			cs.stream = newUpdateStream(in.seed*7919 + 17)
		}
		d.clients = append(d.clients, cs)
	}
	return d
}

// phase runs every client in a closed loop until the deadline and waits
// for all of them. Operations that complete before the deadline are
// marked timed when the phase is measured.
func (d *runner) phase(dur time.Duration, measured, traced bool) (start, end time.Time) {
	var wg sync.WaitGroup
	start = time.Now()
	end = start.Add(dur)
	for _, cs := range d.clients {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			for time.Now().Before(end) {
				rec := d.one(cs, traced)
				rec.timed = measured && !rec.end.After(end)
				cs.recs = append(cs.recs, rec)
			}
		}(cs)
	}
	wg.Wait()
	return start, end
}

// deal returns the client's next deck slot, shuffling a new block of
// n slots when the last one is used up.
func (cs *clientState) deal(n int) int {
	if len(cs.deck) == 0 {
		cs.deck = cs.rng.Perm(n)
	}
	slot := cs.deck[0]
	cs.deck = cs.deck[1:]
	return slot
}

// one sends the client's next operation.
func (d *runner) one(cs *clientState, traced bool) record {
	if cs.stream != nil {
		p := cs.stream.draw(cs.deal(updateBlock))
		rec := d.update(cs, &p, traced)
		if rec.err == "" {
			cs.stream.ack(p)
		}
		return rec
	}
	q := d.w.read(d.in, cs.rng, cs.zipf, cs.deal(d.w.block))
	return d.read(cs, q, traced)
}

func (d *runner) read(cs *clientState, q *query, traced bool) record {
	rec := record{q: q, traced: traced}
	url := d.inst.ep.url + "/sparql"
	if traced {
		url += "?analyze=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(q.text))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	if traced {
		rec.reqID = d.nextID.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatInt(rec.reqID, 10))
	}
	body := d.roundTrip(req, &rec)
	if rec.err != "" {
		return rec
	}
	if traced {
		an, rest, err := stripAnalyze(body)
		if err != nil {
			rec.err = "analyze member: " + err.Error()
			return rec
		}
		rec.an, body = an, rest
	}
	d.keep(cs, &rec, q.text, body)
	return rec
}

func (d *runner) update(cs *clientState, p *pendingUpdate, traced bool) record {
	rec := record{upd: p, traced: traced}
	if traced {
		// The traced run times the core call itself.
		rec.start = time.Now()
		n, err := d.inst.db.UpdateLimits(context.Background(), p.text, engine.Limits{})
		rec.end = time.Now()
		if err != nil {
			rec.err = err.Error()
		}
		rec.affected = n
		return rec
	}
	req, err := http.NewRequest(http.MethodPost, d.inst.ep.url+"/update", strings.NewReader(p.text))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	body := d.roundTrip(req, &rec)
	if rec.err == "" {
		d.keep(cs, &rec, p.text, body)
	}
	return rec
}

// roundTrip sends the request and reads the whole answer; the latency
// runs from the send to the last body byte.
func (d *runner) roundTrip(req *http.Request, rec *record) []byte {
	rec.start = time.Now()
	resp, err := d.inst.ep.client.Do(req)
	if err != nil {
		rec.end = time.Now()
		rec.err = err.Error()
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	rec.end = time.Now()
	resp.Body.Close()
	switch {
	case err != nil:
		rec.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Sprintf("status %d: %s", resp.StatusCode, truncate(body))
	}
	return body
}

// keep hashes the answer and keeps the first body seen for each
// (text, hash) pair, so every answer is covered by one check.
func (d *runner) keep(cs *clientState, rec *record, text string, body []byte) {
	rec.digest = maphash.Bytes(d.hseed, body)
	k := bodyKey{text, rec.digest}
	if _, ok := cs.bodies[k]; !ok {
		cs.bodies[k] = &kept{q: rec.q, upd: rec.upd, body: body}
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// analyzeInfo is the EXPLAIN ANALYZE member the front door attaches
// to a read sent with ?analyze=1, plus the fields parsed from its
// rendered text.
type analyzeInfo struct {
	PlanCached  bool   `json:"plan_cached"`
	ParseNS     int64  `json:"parse_ns"`
	TotalNS     int64  `json:"total_ns"`
	WhereNS     int64  `json:"where_ns"`
	Rows        int64  `json:"rows"`
	Bindings    int64  `json:"bindings"`
	ChunkFetch  int64  `json:"chunk_fetch"`
	ChunkWaitNS int64  `json:"chunk_waitns"`
	Text        string `json:"text"`

	AggNS, ProjNS, SortNS int64
	Matched               int64
	Vectorized            bool
}

// stripAnalyze splits a results document into its analyze member and
// the document without it. JSON object keys are encoded sorted, so
// "analyze" leads and the remainder is byte-identical to the answer
// of the same read sent without ?analyze=1.
func stripAnalyze(body []byte) (*analyzeInfo, []byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, errors.New("not a JSON object")
	}
	if tok, err := dec.Token(); err != nil || tok != "analyze" {
		return nil, nil, errors.New("no leading analyze member")
	}
	an := &analyzeInfo{}
	if err := dec.Decode(an); err != nil {
		return nil, nil, err
	}
	off := int(dec.InputOffset())
	if off >= len(body) || body[off] != ',' {
		return nil, nil, errors.New("analyze member is not followed by the results")
	}
	if err := an.parseText(); err != nil {
		return nil, nil, err
	}
	rest := make([]byte, 0, len(body)-off)
	rest = append(append(rest, '{'), body[off+1:]...)
	return an, rest, nil
}

// parseText reads the phase timings, matched count and vectorized flag
// from the rendered EXPLAIN ANALYZE report (engine.Trace.String).
func (an *analyzeInfo) parseText() error {
	for _, line := range strings.Split(an.Text, "\n") {
		switch {
		case strings.HasPrefix(line, "phases: "):
			for _, f := range strings.Fields(strings.TrimPrefix(line, "phases: ")) {
				name, val, _ := strings.Cut(f, "=")
				dur, err := time.ParseDuration(val)
				if err != nil {
					return fmt.Errorf("phase %q: %w", f, err)
				}
				switch name {
				case "aggregate":
					an.AggNS = dur.Nanoseconds()
				case "project":
					an.ProjNS = dur.Nanoseconds()
				case "sort":
					an.SortNS = dur.Nanoseconds()
				}
			}
		case strings.HasPrefix(line, "matching: "):
			for _, f := range strings.Fields(strings.TrimPrefix(line, "matching: ")) {
				if v, ok := strings.CutPrefix(f, "matched="); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil {
						return fmt.Errorf("matched %q: %w", v, err)
					}
					an.Matched = n
				}
			}
		case strings.HasPrefix(line, "vectorized: "):
			an.Vectorized = true
		}
	}
	return nil
}
