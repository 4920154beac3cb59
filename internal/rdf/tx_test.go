package rdf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// txLoadTerms builds n triples shaped like a bibliographic load:
// n/4 documents, each with a shared class, a distinct title, a year
// from a small domain and one of a few hundred creators.
func txLoadTerms(n int) [][3]Term {
	typ, title := IRI("http://ex/type"), IRI("http://ex/title")
	year, creator := IRI("http://ex/year"), IRI("http://ex/creator")
	article := IRI("http://ex/Article")
	out := make([][3]Term, 0, n)
	for d := 0; len(out) < n; d++ {
		doc := IRI(fmt.Sprintf("http://ex/doc%d", d))
		out = append(out,
			[3]Term{doc, typ, article},
			[3]Term{doc, title, String{Val: fmt.Sprintf("Title %d", d)}},
			[3]Term{doc, year, Integer(int64(1990 + d%30))},
			[3]Term{doc, creator, IRI(fmt.Sprintf("http://ex/author%d", d%400))})
	}
	return out[:n]
}

// TestTxLoadAllocs is the allocation regression test for bulk loads: a
// transaction edits the trie nodes it already owns in place, so a
// 10k-triple load pays for a node once, not for a root-to-leaf path
// per triple in each of the four indexes. (Path copying cost 53.7
// allocations per triple; dictionary interning accounts for most of
// what is left.)
func TestTxLoadAllocs(t *testing.T) {
	const n = 10000
	triples := txLoadTerms(n)
	avg := testing.AllocsPerRun(3, func() {
		g := NewGraph()
		tx := g.Begin()
		for _, tr := range triples {
			tx.Add(tr[0], tr[1], tr[2])
		}
		tx.Commit()
		if g.Size() != n {
			t.Fatalf("size %d, want %d", g.Size(), n)
		}
	})
	perTriple := avg / n
	t.Logf("%.1f allocations per triple", perTriple)
	if perTriple > 25 {
		t.Fatalf("a one-transaction load allocates %.1f per triple, want <= 25", perTriple)
	}
}

// TestStampFitsPadding pins the node sizes: the edit stamps sit in
// what was alignment padding, so no index node changes size class.
func TestStampFitsPadding(t *testing.T) {
	for _, c := range []struct {
		name       string
		got, limit uintptr
	}{
		{"pmNode", unsafe.Sizeof(pmNode[*pset]{}), 32},
		{"pset", unsafe.Sizeof(pset{}), 16},
		{"pmid", unsafe.Sizeof(pmid{}), 24},
	} {
		if c.got != c.limit {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.limit)
		}
	}
}

// TestCommitPublishesOnce pins the transaction contract at the
// state-pointer level: nothing is published between Begin and Commit,
// exactly one new state at Commit, none at Abort or for a no-op.
func TestCommitPublishesOnce(t *testing.T) {
	g := NewGraph()
	p := IRI("http://ex/p")
	before := g.cur()
	tx := g.Begin()
	for i := 0; i < 500; i++ {
		tx.Add(IRI(fmt.Sprintf("http://ex/s%d", i%50)), p, Integer(int64(i)))
		if i%7 == 0 {
			tx.Delete(IRI(fmt.Sprintf("http://ex/s%d", i%50)), p, Integer(int64(i)))
		}
		if g.cur() != before {
			t.Fatalf("state published mid-transaction after %d adds", i+1)
		}
	}
	if g.Size() != 0 {
		t.Fatalf("readers see %d staged triples before Commit", g.Size())
	}
	gen := g.Generation()
	tx.Commit()
	after := g.cur()
	if after == before {
		t.Fatal("Commit published nothing")
	}
	if after.gen != gen+1 || g.Generation() != gen+1 {
		t.Fatalf("Commit moved the generation %d -> %d, want one publish", gen, g.Generation())
	}
	if want := 500 - (500+6)/7; g.Size() != want {
		t.Fatalf("size %d after Commit, want %d", g.Size(), want)
	}

	tx = g.Begin()
	tx.Add(IRI("http://ex/x"), p, Integer(1))
	tx.Abort()
	if g.cur() != after {
		t.Fatal("Abort published a state")
	}
	tx = g.Begin()
	tx.Add(IRI("http://ex/s1"), p, Integer(1))    // already present
	tx.Delete(IRI("http://ex/s0"), p, Integer(0)) // deleted in the first transaction
	tx.Commit()
	if g.cur() != after {
		t.Fatal("a Commit without effective changes published a state")
	}
}

// txKey identifies a triple of the oracle's model by term keys.
type txKey [3]string

// enumerate lists the triples of a graph of IRIs as sorted keys.
func enumerate(g *Graph) []txKey {
	var out []txKey
	g.Triples(func(s, p, o Term) bool {
		out = append(out, txKey{string(s.(IRI)), string(p.(IRI)), string(o.(IRI))})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

// modelKeys lists a model's triples as sorted keys.
func modelKeys(m map[txKey]bool) []txKey {
	g := NewGraph()
	tx := g.Begin()
	for k := range m {
		tx.Add(IRI(k[0]), IRI(k[1]), IRI(k[2]))
	}
	tx.Commit()
	return enumerate(g)
}

// pinned is a snapshot taken between transactions plus the contents it
// must enumerate forever.
type pinned struct {
	snap *Graph
	want []txKey
	size int
}

func (pn pinned) check(t *testing.T, when string) {
	t.Helper()
	if pn.snap.Size() != pn.size {
		t.Fatalf("%s: pinned snapshot size %d, want %d", when, pn.snap.Size(), pn.size)
	}
	got := enumerate(pn.snap)
	if len(got) != len(pn.want) {
		t.Fatalf("%s: pinned snapshot enumerates %d triples, want %d", when, len(got), len(pn.want))
	}
	for i := range got {
		if got[i] != pn.want[i] {
			t.Fatalf("%s: pinned snapshot changed at %d: %v, want %v", when, i, got[i], pn.want[i])
		}
	}
	// Every index permutation must agree with the pinned contents too,
	// not just SPO: count through the single-bound paths.
	for _, k := range pn.want[:min(len(pn.want), 8)] {
		s, _ := pn.snap.Lookup(IRI(k[0]))
		p, _ := pn.snap.Lookup(IRI(k[1]))
		o, _ := pn.snap.Lookup(IRI(k[2]))
		for _, pat := range [][3]ID{{s, 0, 0}, {0, p, 0}, {0, 0, o}, {s, p, 0}, {0, p, o}, {s, 0, o}} {
			n := 0
			pn.snap.Match(pat[0], pat[1], pat[2], func(Triple) bool { n++; return true })
			if c := pn.snap.CountMatch(pat[0], pat[1], pat[2]); c != n {
				t.Fatalf("%s: pinned CountMatch%v = %d, enumeration %d", when, pat, c, n)
			}
		}
	}
}

// runTxOracle drives random transactions of adds and deletes against
// a map model. Before each transaction it pins a snapshot; after every
// later one it checks that all pinned snapshots still enumerate
// exactly what they held when pinned, which fails on any in-place
// write to a node reachable from a published state. Key spaces are
// small so transactions revisit and collapse the same trie paths.
func runTxOracle(t *testing.T, g *Graph, seed int64, txs int) {
	rng := rand.New(rand.NewSource(seed))
	model := map[txKey]bool{}
	var pins []pinned
	term := func(prefix string, n int) string { return fmt.Sprintf("http://ex/%s%d", prefix, rng.Intn(n)) }
	for i := 0; i < txs; i++ {
		if i%5 == 0 {
			pins = append(pins, pinned{snap: g.Snapshot(), want: modelKeys(model), size: len(model)})
		}
		before := make(map[txKey]bool, len(model))
		for k := range model {
			before[k] = true
		}
		tx := g.Begin()
		ops := 1 + rng.Intn(60)
		for j := 0; j < ops; j++ {
			k := txKey{term("s", 40), term("p", 4), term("o", 40)}
			if rng.Intn(3) == 0 {
				// Delete something that exists when possible.
				for mk := range model {
					k = mk
					break
				}
				if got, want := tx.Delete(IRI(k[0]), IRI(k[1]), IRI(k[2])), model[k]; got != want {
					t.Fatalf("tx %d: Delete%v = %v, model says %v", i, k, got, want)
				}
				delete(model, k)
				continue
			}
			if got, want := tx.Add(IRI(k[0]), IRI(k[1]), IRI(k[2])), !model[k]; got != want {
				t.Fatalf("tx %d: Add%v = %v, model says %v", i, k, got, want)
			}
			model[k] = true
		}
		if rng.Intn(5) == 0 {
			tx.Abort()
			model = before
		} else {
			tx.Commit()
		}
		if g.Size() != len(model) {
			t.Fatalf("tx %d: size %d, model %d", i, g.Size(), len(model))
		}
		for _, pn := range pins {
			pn.check(t, fmt.Sprintf("after tx %d", i))
		}
	}
	want := modelKeys(model)
	got := enumerate(g)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("final graph diverged from the model: %d vs %d triples", len(got), len(want))
	}
}

// TestTxSnapshotPersistence is the transient-safety oracle: pinned
// snapshots survive any number of later transactions unchanged, while
// concurrent readers enumerate the live graph (under -race this also
// catches a reader and a transaction touching the same node).
func TestTxSnapshotPersistence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := NewGraph()
		stop := startReaders(t, g)
		runTxOracle(t, g, seed, 100)
		stop()
	}
}

// startReaders runs two goroutines that enumerate the graph's current
// version until the returned stop function is called.
func startReaders(t *testing.T, g *Graph) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := g.Snapshot()
				n := 0
				st.Match(0, 0, 0, func(Triple) bool { n++; return true })
				if n != st.Size() {
					t.Errorf("reader enumerated %d of a %d-triple version", n, st.Size())
					return
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestEditStampWrap starts the stamp counter just below 2^32 so the
// oracle's transactions wrap it: the wrap must reset every stamp
// reachable from the current state, or a transaction handed a reused
// stamp would edit nodes that pinned snapshots still share.
func TestEditStampWrap(t *testing.T) {
	g := NewGraph()
	g.edit = math.MaxUint32 - 40
	stop := startReaders(t, g) // the wrap rewrites stamps under readers
	runTxOracle(t, g, 7, 90)
	stop()
	if g.edit == 0 || g.edit > 100 {
		t.Fatalf("stamp counter at %d, want it wrapped past 0", g.edit)
	}

	// Directly: a node stamped 1 long ago stays reachable; after the
	// wrap the transaction stamped 1 must copy it, not edit it.
	g = NewGraph()
	p := IRI("http://ex/p")
	tx := g.Begin() // stamp 1
	for i := 0; i < 64; i++ {
		tx.Add(IRI("http://ex/s"), p, Integer(int64(i)))
	}
	tx.Commit()
	pin := g.Snapshot()
	g.edit = math.MaxUint32
	tx = g.Begin()
	if tx.edit != 1 {
		t.Fatalf("wrapped stamp %d, want 1", tx.edit)
	}
	for i := 64; i < 128; i++ {
		tx.Add(IRI("http://ex/s"), p, Integer(int64(i)))
	}
	tx.Delete(IRI("http://ex/s"), p, Integer(3))
	tx.Commit()
	if pin.Size() != 64 {
		t.Fatalf("pinned size %d, want 64", pin.Size())
	}
	n := 0
	pin.Match(0, 0, 0, func(Triple) bool { n++; return true })
	if n != 64 || !pin.Has(IRI("http://ex/s"), p, Integer(3)) || pin.Has(IRI("http://ex/s"), p, Integer(100)) {
		t.Fatalf("pinned snapshot was edited across the stamp wrap (enumerates %d)", n)
	}
}

// TestFinishedTxRefusesWrites: after Commit the transaction's nodes are
// published, so a late write must not reach them.
func TestFinishedTxRefusesWrites(t *testing.T) {
	g := NewGraph()
	tx := g.Begin()
	tx.Add(IRI("http://ex/s"), IRI("http://ex/p"), Integer(1))
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Commit did not panic")
		}
		if g.Size() != 1 {
			t.Fatalf("size %d after a refused write", g.Size())
		}
	}()
	tx.Add(IRI("http://ex/s"), IRI("http://ex/p"), Integer(2))
}

// TestTxAddGraph merges a staging graph: the target gets exactly its
// triples, records one op per new triple, and assigns IDs in the
// staging graph's order, skipping terms no staged triple uses.
func TestTxAddGraph(t *testing.T) {
	stage := NewGraph()
	tx := stage.Begin()
	for _, tr := range txLoadTerms(400) {
		tx.Add(tr[0], tr[1], tr[2])
	}
	tx.Add(IRI("http://ex/gone"), IRI("http://ex/p"), Integer(-1))
	tx.Commit()
	stage.Delete(IRI("http://ex/gone"), IRI("http://ex/p"), Integer(-1))

	g := NewGraph()
	g.Add(IRI("http://ex/doc0"), IRI("http://ex/type"), IRI("http://ex/Article"))
	tx = g.Begin()
	tx.Record(true)
	if n := tx.AddGraph(stage); n != 399 || len(tx.Ops()) != 399 || tx.Changed() != 399 {
		t.Fatalf("AddGraph added %d, recorded %d, changed %d; want 399 each", n, len(tx.Ops()), tx.Changed())
	}
	tx.Commit()
	if g.Size() != 400 {
		t.Fatalf("size %d, want 400", g.Size())
	}
	var want, got []string
	stage.Triples(func(s, p, o Term) bool { want = append(want, s.Key()+p.Key()+o.Key()); return true })
	g.Triples(func(s, p, o Term) bool { got = append(got, s.Key()+p.Key()+o.Key()); return true })
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("merged graph differs from the staging graph")
	}
	if _, ok := g.Lookup(IRI("http://ex/gone")); ok {
		t.Fatal("a term no staged triple uses was interned")
	}
	prev := ID(0)
	for d := 1; d < 100; d++ {
		id, _ := g.Lookup(IRI(fmt.Sprintf("http://ex/doc%d", d)))
		if id <= prev {
			t.Fatalf("doc%d got ID %d after %d: IDs do not follow the staging order", d, id, prev)
		}
		prev = id
	}
}
