package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The bibliographic generator: an SP²Bench-shaped graph (Schmidt et
// al.) of typed, dated articles placed in one of 12 journals, each
// credited to 3 distinct authors out of docs/4+1, with an abstract on
// every third document. The model keeps what the generator drew so
// every query's expected row count is known without asking the
// program.

const (
	bibPrefix = "PREFIX b: <http://bench/> "
	nJournals = 12
	firstYear = 1990
	nYears    = 20
	nCreators = 3
)

// Query classes.
const (
	clsShort = iota
	clsLong
	clsWrite
	nClasses
)

var className = [nClasses]string{"short", "long", "write"}

// query is one generated request with what its answer must be.
type query struct {
	class int
	kind  string // template name
	text  string
	// rows is the expected number of result rows (reads).
	rows int
	// value is the expected single value of an array query; valid when
	// isValue is set.
	value   float64
	isValue bool
}

type bibModel struct {
	docs, authors int
	year          []int
	journal       []int
	creators      [][nCreators]int
	byAuthor      [][]int // docs credited to each author
	coauthors     []int   // distinct co-authors of each author
	inJournal     [nJournals]int
	absInJournal  [nJournals]int // docs with an abstract, per journal
	// atLeast[j][y] counts docs of journal j with year >= firstYear+y.
	atLeast [nJournals][nYears]int
}

func newBibModel(docs int, seed int64) *bibModel {
	rng := rand.New(rand.NewSource(seed))
	m := &bibModel{
		docs:     docs,
		authors:  docs/4 + 1,
		year:     make([]int, docs),
		journal:  make([]int, docs),
		creators: make([][nCreators]int, docs),
	}
	m.byAuthor = make([][]int, m.authors)
	for d := 0; d < docs; d++ {
		m.year[d] = firstYear + rng.Intn(nYears)
		m.journal[d] = rng.Intn(nJournals)
		var cs [nCreators]int
		for k := 0; k < nCreators; k++ {
			a := rng.Intn(m.authors)
			for contains(cs[:k], a) {
				a = rng.Intn(m.authors)
			}
			cs[k] = a
			m.byAuthor[a] = append(m.byAuthor[a], d)
		}
		m.creators[d] = cs
		m.inJournal[m.journal[d]]++
		if d%3 == 0 {
			m.absInJournal[m.journal[d]]++
		}
		for y := 0; y <= m.year[d]-firstYear; y++ {
			m.atLeast[m.journal[d]][y]++
		}
	}
	m.coauthors = make([]int, m.authors)
	for a := range m.byAuthor {
		seen := map[int]bool{}
		for _, d := range m.byAuthor[a] {
			for _, c := range m.creators[d] {
				if c != a {
					seen[c] = true
				}
			}
		}
		m.coauthors[a] = len(seen)
	}
	return m
}

// turtle renders the model as one Turtle document.
func (m *bibModel) turtle() string {
	var sb strings.Builder
	sb.Grow(m.docs * 200)
	sb.WriteString("@prefix b: <http://bench/> .\n")
	for a := 0; a < m.authors; a++ {
		fmt.Fprintf(&sb, "b:author%d b:type b:Person ; b:name \"Author %d\" .\n", a, a)
	}
	for d := 0; d < m.docs; d++ {
		fmt.Fprintf(&sb, "b:doc%d b:type b:Article ; b:journal b:journal%d ; b:year %d ; b:title \"Title %d\" ; b:creator b:author%d , b:author%d , b:author%d",
			d, m.journal[d], m.year[d], d, m.creators[d][0], m.creators[d][1], m.creators[d][2])
		if d%3 == 0 {
			fmt.Fprintf(&sb, " ; b:abstract \"Abstract of doc %d\"", d)
		}
		sb.WriteString(" .\n")
	}
	return sb.String()
}

// triples is the number of triples the document holds.
func (m *bibModel) triples() int {
	return 2*m.authors + (4+nCreators)*m.docs + (m.docs+2)/3
}

// journalsAbove counts journals with more than min docs.
func (m *bibModel) journalsAbove(min int) int {
	n := 0
	for _, c := range m.inJournal {
		if c > min {
			n++
		}
	}
	return n
}

// bibBlock is the read mix's deck: 15 short slots (5 per template) and
// 5 long ones (1 per template). Each client deals the slots of a block
// in a seeded order, so every run has the same template proportions.
const bibBlock = 20

// readQuery returns the read of the bib mix for a deck slot: 75% short
// lookups whose constants are uniform over the data (so most texts
// miss the query cache), 25% long analytical shapes.
func (m *bibModel) readQuery(rng *rand.Rand, slot int) *query {
	if slot < bibBlock*3/4 {
		switch slot % 3 {
		case 0:
			d := rng.Intn(m.docs)
			rows := 4 + nCreators
			if d%3 == 0 {
				rows++
			}
			return &query{class: clsShort, kind: "doc", rows: rows,
				text: fmt.Sprintf(bibPrefix+"SELECT ?p ?o WHERE { b:doc%d ?p ?o }", d)}
		case 1:
			a := rng.Intn(m.authors)
			return &query{class: clsShort, kind: "author-titles", rows: len(m.byAuthor[a]),
				text: fmt.Sprintf(bibPrefix+"SELECT ?d ?t WHERE { ?d b:creator b:author%d . ?d b:title ?t }", a)}
		default:
			a := rng.Intn(m.authors)
			return &query{class: clsShort, kind: "coauthors", rows: m.coauthors[a],
				text: fmt.Sprintf(bibPrefix+"SELECT DISTINCT ?c WHERE { ?d b:creator b:author%d . ?d b:creator ?c FILTER(?c != b:author%d) }", a, a)}
		}
	}
	j := rng.Intn(nJournals)
	switch slot - bibBlock*3/4 {
	case 0:
		y := rng.Intn(nYears)
		return &query{class: clsLong, kind: "journal-year", rows: m.atLeast[j][y],
			text: fmt.Sprintf(bibPrefix+"SELECT ?d ?y WHERE { ?d b:type b:Article . ?d b:journal b:journal%d . ?d b:year ?y FILTER(?y >= %d) }", j, firstYear+y)}
	case 1:
		min := rng.Intn(m.docs/nJournals + 1)
		return &query{class: clsLong, kind: "group-journal", rows: m.journalsAbove(min),
			text: fmt.Sprintf(bibPrefix+"SELECT ?j (COUNT(?d) AS ?n) (AVG(?y) AS ?avg) WHERE { ?d b:journal ?j . ?d b:year ?y } GROUP BY ?j HAVING (COUNT(?d) > %d)", min)}
	case 2:
		rows := m.inJournal[j]
		if rows > 10 {
			rows = 10
		}
		return &query{class: clsLong, kind: "topk", rows: rows,
			text: fmt.Sprintf(bibPrefix+"SELECT ?d ?y WHERE { ?d b:journal b:journal%d . ?d b:year ?y } ORDER BY DESC(?y) ?d LIMIT 10", j)}
	case 3:
		return &query{class: clsLong, kind: "optional-abstract", rows: m.inJournal[j],
			text: fmt.Sprintf(bibPrefix+"SELECT ?d ?abs WHERE { ?d b:journal b:journal%d OPTIONAL { ?d b:abstract ?abs } }", j)}
	default:
		return &query{class: clsLong, kind: "union-labels", rows: m.inJournal[j] + m.absInJournal[j],
			text: fmt.Sprintf(bibPrefix+"SELECT ?x ?n WHERE { { ?x b:journal b:journal%d . ?x b:title ?n } UNION { ?x b:journal b:journal%d . ?x b:abstract ?n } }", j, j)}
	}
}

// updateStream is update-mix's seeded writer: 70% INSERT DATA of a new
// 4-triple preprint, 30% DELETE/INSERT WHERE edits of an acknowledged
// preprint's year. Preprints carry no journal, title or name and are
// credited to writer IRIs no read touches, so the read mix's expected
// answers hold while the writer runs.
type updateStream struct {
	rng   *rand.Rand
	next  int
	acked map[int]int // preprint number -> its acknowledged year
	order []int       // acknowledged preprints, for uniform edit choice
}

func newUpdateStream(seed int64) *updateStream {
	return &updateStream{rng: rand.New(rand.NewSource(seed)), acked: map[int]int{}}
}

// pendingUpdate is a drawn update and the state it sets once
// acknowledged.
type pendingUpdate struct {
	text     string
	doc      int
	year     int
	insert   bool
	affected int // expected "affected" count in the acknowledgement
}

// updateBlock is the writer's deck: 7 insert slots, 3 edit slots.
const updateBlock = 10

// draw returns the update for a deck slot.
func (u *updateStream) draw(slot int) pendingUpdate {
	year := firstYear + u.rng.Intn(nYears)
	if len(u.order) == 0 || slot < 7 {
		d := u.next
		u.next++
		return pendingUpdate{doc: d, year: year, insert: true, affected: 4,
			text: fmt.Sprintf(bibPrefix+"INSERT DATA { b:preprint%d b:type b:Preprint ; b:year %d ; b:creator b:writer%d ; b:abstract \"Preprint %d\" }",
				d, year, d%97, d)}
	}
	d := u.order[u.rng.Intn(len(u.order))]
	if year == u.acked[d] {
		year = firstYear + (year-firstYear+1)%nYears
	}
	return pendingUpdate{doc: d, year: year, affected: 2,
		text: fmt.Sprintf(bibPrefix+"DELETE { b:preprint%d b:year ?y } INSERT { b:preprint%d b:year %d } WHERE { b:preprint%d b:year ?y }",
			d, d, year, d)}
}

// ack records an acknowledged update.
func (u *updateStream) ack(p pendingUpdate) {
	if _, ok := u.acked[p.doc]; !ok {
		u.order = append(u.order, p.doc)
	}
	u.acked[p.doc] = p.year
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
