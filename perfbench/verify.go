package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scisparql/internal/core"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// Answer checks, run after the measured windows. Every kept body is
// decoded and checked against what the generator implies (row counts,
// array values, update acknowledgements); a seeded sample per query
// class is compared row for row with the oracle; update-mix finally
// reads every acknowledged preprint back.

const oracleSample = 12 // texts compared with the oracle per class

type sparqlTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Datatype string `json:"datatype"`
	Lang     string `json:"xml:lang"`
}

type resultsDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]sparqlTerm `json:"bindings"`
	} `json:"results"`
}

// canonical renders a result set order-independently.
func (doc *resultsDoc) canonical() []string {
	rows := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			t := b[k]
			fmt.Fprintf(&sb, "%s=%s|%s|%s|%s;", k, t.Type, t.Value, t.Datatype, t.Lang)
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return rows
}

// checkBody checks one kept answer against its generated expectation.
func checkBody(k *kept) error {
	if k.upd != nil {
		var ack struct {
			OK       bool `json:"ok"`
			Affected int  `json:"affected"`
		}
		if err := json.Unmarshal(k.body, &ack); err != nil {
			return fmt.Errorf("update acknowledgement: %w", err)
		}
		if !ack.OK || ack.Affected != k.upd.affected {
			return fmt.Errorf("update acknowledged ok=%v affected=%d, want affected=%d", ack.OK, ack.Affected, k.upd.affected)
		}
		return nil
	}
	var doc resultsDoc
	if err := json.Unmarshal(k.body, &doc); err != nil {
		return fmt.Errorf("results document: %w", err)
	}
	if got := len(doc.Results.Bindings); got != k.q.rows {
		return fmt.Errorf("%d rows, want %d", got, k.q.rows)
	}
	if k.q.isValue {
		t, ok := doc.Results.Bindings[0]["v"]
		if !ok {
			return fmt.Errorf("no value bound")
		}
		v, err := strconv.ParseFloat(t.Value, 64)
		if err != nil || v != k.q.value {
			return fmt.Errorf("value %q, want %v", t.Value, k.q.value)
		}
	}
	return nil
}

// oracleRows runs a read on the oracle and renders it canonically,
// through the same encoder the front door uses.
func oracleRows(oracle *core.SSDM, text string) ([]string, error) {
	res, err := oracle.QueryLimits(context.Background(), text, engine.Limits{})
	if err != nil {
		return nil, err
	}
	obj, err := engine.JSONObject(res)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(obj)
	if err != nil {
		return nil, err
	}
	var doc resultsDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc.canonical(), nil
}

// checkResult is the outcome of the answer checks.
type checkResult struct {
	bad      map[bodyKey]string // failing kept answers
	notes    []string           // other failures
	checked  int                // kept answers checked
	compared int                // answers compared with the oracle
}

func (c *checkResult) ok() bool { return len(c.bad) == 0 && len(c.notes) == 0 }

// failed counts the attempted operations that failed: transport
// errors, non-200 answers and answers whose check failed.
func (c *checkResult) failed(recs []record) int {
	n := 0
	for _, r := range recs {
		switch {
		case r.err != "":
			n++
		case r.upd != nil && r.traced:
			if r.affected != r.upd.affected {
				n++
			}
		default:
			text := ""
			if r.q != nil {
				text = r.q.text
			} else {
				text = r.upd.text
			}
			if _, bad := c.bad[bodyKey{text, r.digest}]; bad {
				n++
			}
		}
	}
	return n
}

// check runs every answer check of the run.
func (d *runner) check() (*checkResult, error) {
	res := &checkResult{bad: map[bodyKey]string{}}
	all := map[bodyKey]*kept{}
	for _, cs := range d.clients {
		for k, v := range cs.bodies {
			all[k] = v
		}
	}
	keys := make([]bodyKey, 0, len(all))
	for k, v := range all {
		res.checked++
		if err := checkBody(v); err != nil {
			res.bad[k] = err.Error()
		}
		if v.q != nil {
			keys = append(keys, k)
		}
	}
	if d.w.oracle != nil {
		oracle, err := d.w.oracle(d.in)
		if err != nil {
			return nil, fmt.Errorf("building oracle: %w", err)
		}
		for _, k := range sampleKeys(keys, all, d.in.seed) {
			want, err := oracleRows(oracle, k.text)
			if err != nil {
				return nil, fmt.Errorf("oracle query: %w", err)
			}
			var doc resultsDoc
			if err := json.Unmarshal(all[k].body, &doc); err != nil {
				res.bad[k] = err.Error()
				continue
			}
			res.compared++
			if !slices.Equal(doc.canonical(), want) {
				res.bad[k] = "differs from the oracle"
			}
		}
	}
	if d.w.writer {
		if err := d.checkPreprints(); err != nil {
			res.notes = append(res.notes, err.Error())
		}
	}
	return res, nil
}

// sampleKeys picks a seeded sample of up to oracleSample read texts per
// query class.
func sampleKeys(keys []bodyKey, all map[bodyKey]*kept, seed int64) []bodyKey {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].text != keys[j].text {
			return keys[i].text < keys[j].text
		}
		return keys[i].digest < keys[j].digest
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var out []bodyKey
	taken := [nClasses]int{}
	for _, k := range keys {
		c := all[k].q.class
		if taken[c] < oracleSample {
			taken[c]++
			out = append(out, k)
		}
	}
	return out
}

// checkPreprints reads every preprint back: each acknowledged insert
// must be there whole (4 triples) with its last acknowledged year, and
// nothing unacknowledged may be.
func (d *runner) checkPreprints() error {
	stream := d.clients[0].stream
	res, err := d.inst.db.Query(bibPrefix + "SELECT ?d ?p ?o WHERE { ?d b:type b:Preprint . ?d ?p ?o }")
	if err != nil {
		return fmt.Errorf("reading preprints back: %w", err)
	}
	triples := map[string]int{}
	years := map[string]string{}
	for i := range res.Rows {
		subj := res.Get(i, "d").String()
		triples[subj]++
		if res.Get(i, "p") == rdf.IRI("http://bench/year") {
			years[subj] = res.Get(i, "o").String()
		}
	}
	if len(triples) != len(stream.acked) {
		return fmt.Errorf("%d preprints stored, %d acknowledged", len(triples), len(stream.acked))
	}
	for doc, year := range stream.acked {
		subj := rdf.IRI(fmt.Sprintf("http://bench/preprint%d", doc)).String()
		if triples[subj] != 4 {
			return fmt.Errorf("preprint %d has %d triples, want 4", doc, triples[subj])
		}
		if years[subj] != rdf.Integer(int64(year)).String() {
			return fmt.Errorf("preprint %d has year %s, want %d", doc, years[subj], year)
		}
	}
	return nil
}
