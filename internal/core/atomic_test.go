package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"scisparql/internal/rdf"
)

// graphLines enumerates a graph as sorted N-Triples-like lines.
func graphLines(g *rdf.Graph) []string {
	var out []string
	g.Triples(func(s, p, o rdf.Term) bool {
		out = append(out, s.String()+" "+p.String()+" "+o.String())
		return true
	})
	sort.Strings(out)
	return out
}

// malformedAt builds a Turtle document of n statements whose statement
// bad (1-based) is missing its object.
func malformedAt(n, bad int) string {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://ex/> .\n")
	for i := 1; i <= n; i++ {
		if i == bad {
			fmt.Fprintf(&sb, "ex:doc%d ex:val .\n", i)
			continue
		}
		fmt.Fprintf(&sb, "ex:doc%d a ex:Doc ; ex:val %d .\n", i, i)
	}
	return sb.String()
}

// TestLoadTurtleAtomic is the deterministic twin of
// TestConcurrentQueriesAndUpdates for Turtle loads: a document that
// fails at statement 1,000 must leave the target graph exactly as it
// was — size, contents and generation — with the WAL off and on, and
// a successful load must leave a snapshot pinned before it untouched.
func TestLoadTurtleAtomic(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *SSDM {
				if durable {
					return openWAL(t, dir, nil)
				}
				return Open()
			}
			db := open()
			if err := db.LoadTurtle("@prefix ex: <http://ex/> .\nex:base ex:val 0 .\n", ""); err != nil {
				t.Fatal(err)
			}
			g := db.Dataset.Default
			pinned := g.Snapshot()
			wantLines := graphLines(pinned)
			wantSize, wantGen := g.Size(), g.Generation()

			if err := db.LoadTurtle(malformedAt(1500, 1000), ""); err == nil {
				t.Fatal("malformed document loaded without error")
			}
			if g.Size() != wantSize {
				t.Fatalf("size %d after a failed load, want %d", g.Size(), wantSize)
			}
			if g.Generation() != wantGen {
				t.Fatalf("generation %d after a failed load, want %d", g.Generation(), wantGen)
			}
			if got := graphLines(g.Snapshot()); strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
				t.Fatalf("graph changed by a failed load:\n%s", strings.Join(got, "\n"))
			}

			if err := db.LoadTurtle(malformedAt(1500, 0), ""); err != nil {
				t.Fatal(err)
			}
			if want := wantSize + 3000; g.Size() != want {
				t.Fatalf("size %d after a good load, want %d", g.Size(), want)
			}
			if got := graphLines(pinned); strings.Join(got, "\n") != strings.Join(wantLines, "\n") {
				t.Fatal("a load changed a snapshot pinned before it")
			}
			if durable {
				// The failed document never reached the log either.
				if err := db.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				if n := open().Dataset.Default.Size(); n != wantSize+3000 {
					t.Fatalf("recovered size %d, want %d", n, wantSize+3000)
				}
			}
		})
	}
}
