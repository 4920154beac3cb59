package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/httpfront"
	"scisparql/internal/metrics"
	"scisparql/internal/rdf"
	"scisparql/internal/sparql"
	"scisparql/internal/ssdmclient"
)

// failingDist is a distributor that fails each query with the error
// its source text maps to, standing in for the engine so every error
// class can be raised on demand through the real transports.
type failingDist struct{ errs map[string]error }

func (d *failingDist) Query(_ context.Context, src string, _ *sparql.Query, _ engine.Limits) (*engine.Results, error) {
	return nil, d.errs[src]
}

func (d *failingDist) QueryTraced(_ context.Context, src string, _ *sparql.Query, _ engine.Limits) (*engine.Results, *engine.Trace, error) {
	return nil, nil, d.errs[src]
}

func (d *failingDist) Update(context.Context, sparql.Statement, string, int, engine.Limits) (int, error) {
	return 0, errors.New("failingDist: no updates")
}

func (d *failingDist) LoadTurtle(string, rdf.IRI) error { return errors.New("failingDist: no loads") }

func (d *failingDist) Stats() core.ShardStats { return core.ShardStats{} }

// TestErrorClassConformance raises every error class in one instance
// served over the wire protocol and the HTTP front door at once. For
// each class: the wire response carries the class's code, the client's
// error matches exactly the class's sentinel under errors.Is, and the
// HTTP front door answers with the status and code that the status
// table of docs/OPERATIONS.md documents.
func TestErrorClassConformance(t *testing.T) {
	sentinels := []error{core.ErrQueryTimeout, core.ErrResourceLimit, core.ErrQueryCancelled,
		core.ErrInternal, core.ErrDurability, core.ErrShardUnavailable}
	cases := []struct {
		err      error
		code     string // wire Response.Code
		sentinel error  // nil for the generic class: no sentinel matches
		httpCode string
	}{
		{engine.ErrQueryTimeout, "timeout", core.ErrQueryTimeout, "timeout"},
		{fmt.Errorf("query: %w", engine.ErrQueryTimeout), "timeout", core.ErrQueryTimeout, "timeout"},
		{context.DeadlineExceeded, "timeout", core.ErrQueryTimeout, "timeout"},
		{engine.ErrQueryCancelled, "cancelled", core.ErrQueryCancelled, "cancelled"},
		{context.Canceled, "cancelled", core.ErrQueryCancelled, "cancelled"},
		{engine.ErrResourceLimit, "resource_limit", core.ErrResourceLimit, "resource_limit"},
		{fmt.Errorf("bindings budget: %w", engine.ErrResourceLimit), "resource_limit", core.ErrResourceLimit, "resource_limit"},
		{engine.ErrInternal, "internal", core.ErrInternal, "internal"},
		{fmt.Errorf("trapped: %w", engine.ErrInternal), "internal", core.ErrInternal, "internal"},
		{fmt.Errorf("wal append: %w", core.ErrDurability), "durability", core.ErrDurability, "durability"},
		{fmt.Errorf("%w: shard a: connection refused", core.ErrShardUnavailable), "shard_unavailable", core.ErrShardUnavailable, "shard_unavailable"},
		{errors.New("parse error: line 1 col 8: unexpected token"), "error", nil, "bad_query"},
	}
	dist := &failingDist{errs: map[string]error{}}
	for i, tc := range cases {
		dist.errs[fmt.Sprintf("ASK { <http://ex/case%d> ?p ?o }", i)] = tc.err
	}
	db := core.Open()
	db.SetDistributor(dist)

	srv := New(db)
	srv.Metrics = metrics.NewRegistry()
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

	front := httpfront.New(httpfront.NewTenants(db))
	front.Metrics = metrics.NewRegistry()
	front.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	documented := documentedStatuses(t, "../../docs/OPERATIONS.md")

	for i, tc := range cases {
		q := fmt.Sprintf("ASK { <http://ex/case%d> ?p ?o }", i)

		_, err := cl.Query(q)
		var se *ssdmclient.ServerError
		if !errors.As(err, &se) {
			t.Errorf("%v: wire error %v is not a ServerError", tc.err, err)
			continue
		}
		if se.Code != tc.code {
			t.Errorf("%v: wire code %q, want %q", tc.err, se.Code, tc.code)
		}
		for _, s := range sentinels {
			if got, want := errors.Is(err, s), s == tc.sentinel; got != want {
				t.Errorf("%v: errors.Is(client error, %q) = %v, want %v", tc.err, s, got, want)
			}
		}

		w := httptest.NewRecorder()
		front.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
		var body struct{ Code string }
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Errorf("%v: HTTP body %q: %v", tc.err, w.Body.String(), err)
			continue
		}
		if body.Code != tc.httpCode {
			t.Errorf("%v: HTTP code %q, want %q", tc.err, body.Code, tc.httpCode)
		}
		if want, ok := documented[body.Code]; !ok || w.Code != want {
			t.Errorf("%v: HTTP status %d for %q, OPERATIONS.md documents %d", tc.err, w.Code, body.Code, want)
		}
		if w.Code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
			t.Errorf("%v: 503 without Retry-After", tc.err)
		}
	}
}

// documentedStatuses parses the "### Status codes" table: every
// backticked code in a row's second cell maps to the row's status.
func documentedStatuses(t *testing.T, path string) map[string]int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "### Status codes\n")
	if !ok {
		t.Fatalf("%s: no status codes section", path)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	code := regexp.MustCompile("`([a-z_]+)`")
	out := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		status, err := strconv.Atoi(strings.TrimSpace(cells[1]))
		if err != nil {
			continue
		}
		for _, m := range code.FindAllStringSubmatch(cells[2], -1) {
			out[m[1]] = status
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: status code table is empty", path)
	}
	return out
}
