package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
	"scisparql/internal/shard"
	"scisparql/internal/spd"
	"scisparql/internal/storage"
	"scisparql/internal/storage/filestore"
)

// Tracing for the traced run. Spans are recorded by the benchmark's
// own code around the calls it makes into each layer: the client's
// HTTP round trip, the handler that wraps httpfront.Front, the
// EXPLAIN ANALYZE trace the front returns for each read (core parse and
// engine execution with its phases), and decorators around every
// shard.Shard and the file back-end. Spans stay in memory and are
// written out once the run ends.

// span is one timed interval. Times are nanoseconds since the run's
// epoch; Parent 0 marks a root. Spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans of a run. Spans are assembled after the
// traced window, on one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) ns(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its ID.
func (t *tracer) add(parent, req int64, name string, start, end int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, each span's self time in
// nanoseconds: its duration minus the part of its interval that the
// union of its children's intervals covers.
func selfTimes(spans []span) map[string][]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		covered := coveredNanos(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered))
	}
	return out
}

// coveredNanos is the length of the union of the children's intervals
// clipped to [start, end].
func coveredNanos(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// serverRec is what the traced handler observes of one request on the
// server side. It travels in the request context so the shard and
// storage decorators can attach their legs to the request.
type serverRec struct {
	start, bodyRead, end time.Time

	mu    sync.Mutex
	legs  [][2]time.Time // shard calls
	reads [][2]time.Time // storage reads
}

type recKey struct{}

func recFrom(ctx context.Context) *serverRec {
	r, _ := ctx.Value(recKey{}).(*serverRec)
	return r
}

const reqIDHeader = "X-Bench-Request-Id"

// tracedHandler wraps the front door: it times each request on the
// server side, notes when the request body has been read (the front
// calls into core right after), and files the record by request ID.
type tracedHandler struct {
	next http.Handler
	mu   sync.Mutex
	recs map[int64]*serverRec
}

func newTracedHandler(next http.Handler) *tracedHandler {
	return &tracedHandler{next: next, recs: map[int64]*serverRec{}}
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	rec := &serverRec{start: time.Now()}
	r.Body = &bodyWatch{ReadCloser: r.Body, rec: rec}
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), recKey{}, rec)))
	rec.end = time.Now()
	h.mu.Lock()
	h.recs[id] = rec
	h.mu.Unlock()
}

func (h *tracedHandler) take(id int64) *serverRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := h.recs[id]
	delete(h.recs, id)
	return rec
}

// bodyWatch notes when the request body reaches EOF.
type bodyWatch struct {
	io.ReadCloser
	rec *serverRec
}

func (b *bodyWatch) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.rec.bodyRead.IsZero() {
		b.rec.bodyRead = time.Now()
	}
	return n, err
}

// legLog collects the durations of shard calls.
type legLog struct {
	mu   sync.Mutex
	durs []float64 // nanoseconds
}

func (l *legLog) record(ctx context.Context, t0 time.Time) {
	t1 := time.Now()
	l.mu.Lock()
	l.durs = append(l.durs, float64(t1.Sub(t0)))
	l.mu.Unlock()
	if rec := recFrom(ctx); rec != nil {
		rec.mu.Lock()
		rec.legs = append(rec.legs, [2]time.Time{t0, t1})
		rec.mu.Unlock()
	}
}

// take returns and clears the recorded durations.
func (l *legLog) take() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	durs := l.durs
	l.durs = nil
	return durs
}

// timedShard decorates a shard.Shard, timing every call the
// coordinator makes to it.
type timedShard struct {
	shard.Shard
	log *legLog
}

func (t *timedShard) Scan(ctx context.Context, s, p, o rdf.Term, emit func(s, p, o rdf.Term) bool) error {
	defer t.log.record(ctx, time.Now())
	return t.Shard.Scan(ctx, s, p, o, emit)
}

func (t *timedShard) Query(ctx context.Context, src string, lim engine.Limits) (*engine.Results, error) {
	defer t.log.record(ctx, time.Now())
	return t.Shard.Query(ctx, src, lim)
}

func (t *timedShard) Update(ctx context.Context, src string, lim engine.Limits) (int, error) {
	defer t.log.record(ctx, time.Now())
	return t.Shard.Update(ctx, src, lim)
}

// readCounters are the storage decorator's totals.
type readCounters struct {
	calls, chunks, bytes int64
	durs                 []float64 // nanoseconds per read call
}

// timedBackend decorates the file back-end, counting and timing every
// chunk read. Arrays it opens are proxied through it, so every read a
// query triggers passes the decorator.
type timedBackend struct {
	storage.Backend // the file store's lifecycle methods
	fs              *filestore.Store
	mu              sync.Mutex
	c               readCounters
}

func (t *timedBackend) Open(id int64) (*array.Array, error) {
	a, err := t.fs.Open(id)
	if err != nil {
		return nil, err
	}
	return array.NewProxied(array.NewProxy(t, id, a.Base.Proxy.ChunkElems), a.Etype(), a.Shape...)
}

func (t *timedBackend) done(ctx context.Context, t0 time.Time, chunks, bytes int64) {
	t1 := time.Now()
	t.mu.Lock()
	t.c.calls++
	t.c.chunks += chunks
	t.c.bytes += bytes
	t.c.durs = append(t.c.durs, float64(t1.Sub(t0)))
	t.mu.Unlock()
	if rec := recFrom(ctx); rec != nil {
		rec.mu.Lock()
		rec.reads = append(rec.reads, [2]time.Time{t0, t1})
		rec.mu.Unlock()
	}
}

func (t *timedBackend) ReadChunks(arrayID int64, runs []spd.Run) (map[int][]byte, error) {
	t0 := time.Now()
	got, err := t.fs.ReadChunks(arrayID, runs)
	var bytes int64
	for _, b := range got {
		bytes += int64(len(b))
	}
	t.done(context.Background(), t0, int64(len(got)), bytes)
	return got, err
}

func (t *timedBackend) ReadChunksCtx(ctx context.Context, arrayID int64, runs []spd.Run, emit func(chunkNo int, data []byte) error) error {
	t0 := time.Now()
	var chunks, bytes int64
	err := t.fs.ReadChunksCtx(ctx, arrayID, runs, func(no int, data []byte) error {
		chunks++
		bytes += int64(len(data))
		return emit(no, data)
	})
	t.done(ctx, t0, chunks, bytes)
	return err
}

// take returns and clears the counters.
func (t *timedBackend) take() readCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.c
	t.c = readCounters{}
	return c
}
