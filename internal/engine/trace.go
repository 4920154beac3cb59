package engine

import (
	"fmt"
	"strings"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/sparql"
)

// Trace is the execution profile of one traced query — the payload of
// EXPLAIN ANALYZE. All durations are nanoseconds so the struct crosses
// the wire without unit ambiguity. Its JSON form is the one trace
// encoding: the wire protocol's Response.Trace and, with an added
// "text" member, the HTTP front door's "analyze" member.
//
// Phase timings are cumulative: a subquery executed while enumerating
// the outer WHERE contributes to both the outer enumeration and its own
// projection phase, so phases may sum to more than TotalNanos.
type Trace struct {
	// ParseNanos is the time spent lexing/parsing the query text; zero
	// when the text was served from the compiled-query cache. Set by the
	// manager (core), not the engine.
	ParseNanos int64 `json:"parse_ns"`
	// PlanCached reports whether the parsed query came from the
	// compiled-query cache. Set by the manager.
	PlanCached bool `json:"plan_cached"`

	// TotalNanos is the wall-clock time of the whole execution.
	TotalNanos int64 `json:"total_ns"`
	// WhereNanos is the time enumerating WHERE solutions (ungrouped
	// SELECT pipeline; includes chunk waits incurred while matching).
	WhereNanos int64 `json:"where_ns"`
	// AggNanos is the time in grouping/aggregation (which consumes the
	// WHERE stream itself, so grouped queries report AggNanos in place
	// of WhereNanos).
	AggNanos int64 `json:"agg_ns"`
	// ProjNanos is the time evaluating projection expressions, including
	// batched array-proxy prefetches (APR).
	ProjNanos int64 `json:"proj_ns"`
	// SortNanos is the time in ORDER BY.
	SortNanos int64 `json:"sort_ns"`

	// Rows is the number of result rows produced.
	Rows int `json:"rows"`
	// Bindings is the number of intermediate bindings produced while
	// enumerating solutions (the quantity MaxBindings budgets).
	Bindings int64 `json:"bindings"`
	// MatchCalls is the number of triple-pattern matcher invocations.
	MatchCalls int64 `json:"match_calls"`
	// Matched is the number of candidate bindings emitted by pattern
	// matching before downstream filtering.
	Matched int64 `json:"matched"`

	// Vectorized reports whether any part of the execution ran on the
	// batch-at-a-time path; VecBatches/VecRows count the batches and
	// rows its pipelines emitted.
	Vectorized bool  `json:"vectorized,omitempty"`
	VecBatches int64 `json:"vec_batches,omitempty"`
	VecRows    int64 `json:"vec_rows,omitempty"`

	// VecAggGroups is the number of groups the batch-native aggregation
	// path produced (zero when aggregation ran tuple-at-a-time or not at
	// all). VecSortRows is the number of ID rows the vectorized ORDER BY
	// sorted; VecSortTopK is the bounded top-K heap size when the ORDER
	// BY + LIMIT pushdown engaged (zero otherwise).
	VecAggGroups int64 `json:"vec_agg_groups,omitempty"`
	VecSortRows  int64 `json:"vec_sort_rows,omitempty"`
	VecSortTopK  int64 `json:"vec_sort_topk,omitempty"`

	// ChunkFetches is the number of array chunks fetched from a storage
	// back-end on this query's behalf (cache hits are not fetches).
	ChunkFetches int64 `json:"chunk_fetch"`
	// ChunkWaitNanos is the time the query was blocked waiting on chunk
	// retrieval.
	ChunkWaitNanos int64 `json:"chunk_waitns"`

	// Distributed execution (filled by the shard coordinator when the
	// instance runs a sharded topology; zero otherwise). ShardMode is
	// "pushdown" (per-shard execution, partials merged at the
	// coordinator) or "gather" (triple-pattern masks scattered, query
	// evaluated over the merged scratch graph). Shards is the topology
	// size, ShardCalls the shard requests this query issued, and
	// ShardRows the result rows / scan triples streamed back.
	ShardMode  string `json:"shard_mode,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	ShardCalls int64  `json:"shard_calls,omitempty"`
	ShardRows  int64  `json:"shard_rows,omitempty"`

	// Error carries the failure that ended the execution, empty on
	// success — so a traced timeout still reports where the time went.
	Error string `json:"error,omitempty"`

	// Plan is the executed plan annotated with per-step call/emit
	// counters and per-pattern match counts.
	Plan string `json:"plan"`
}

// String renders the full EXPLAIN ANALYZE report: headline counters,
// phase timings, and the annotated plan.
func (t *Trace) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN ANALYZE  total=%v rows=%d bindings=%d\n",
		time.Duration(t.TotalNanos), t.Rows, t.Bindings)
	if t.PlanCached {
		sb.WriteString("parse: plan cache hit\n")
	} else if t.ParseNanos > 0 {
		fmt.Fprintf(&sb, "parse: %v\n", time.Duration(t.ParseNanos))
	}
	fmt.Fprintf(&sb, "phases: where=%v aggregate=%v project=%v sort=%v\n",
		time.Duration(t.WhereNanos), time.Duration(t.AggNanos),
		time.Duration(t.ProjNanos), time.Duration(t.SortNanos))
	fmt.Fprintf(&sb, "matching: calls=%d matched=%d\n", t.MatchCalls, t.Matched)
	if t.Vectorized {
		fmt.Fprintf(&sb, "vectorized: batches=%d rows=%d", t.VecBatches, t.VecRows)
		if t.VecAggGroups > 0 {
			fmt.Fprintf(&sb, " agg-groups=%d", t.VecAggGroups)
		}
		if t.VecSortRows > 0 {
			fmt.Fprintf(&sb, " sort-rows=%d", t.VecSortRows)
		}
		if t.VecSortTopK > 0 {
			fmt.Fprintf(&sb, " top-k=%d", t.VecSortTopK)
		}
		sb.WriteByte('\n')
	}
	if t.ShardMode != "" {
		fmt.Fprintf(&sb, "distributed: mode=%s shards=%d calls=%d rows=%d\n",
			t.ShardMode, t.Shards, t.ShardCalls, t.ShardRows)
	}
	if t.ChunkFetches > 0 || t.ChunkWaitNanos > 0 {
		fmt.Fprintf(&sb, "chunks: fetched=%d wait=%v\n",
			t.ChunkFetches, time.Duration(t.ChunkWaitNanos))
	}
	if t.Error != "" {
		fmt.Fprintf(&sb, "error: %s\n", t.Error)
	}
	sb.WriteString("plan:\n")
	sb.WriteString(t.Plan)
	return sb.String()
}

// phase identifies one timed section of the SELECT pipeline.
type phase int

const (
	phaseWhere phase = iota
	phaseAgg
	phaseProj
	phaseSort
)

// traceCollector accumulates the profile of one query execution. It is
// confined to the query's goroutine except for fetch, whose fields are
// atomic (chunk workers record into it). A nil collector — the untraced
// fast path — imposes only nil checks.
type traceCollector struct {
	fetch    array.FetchStats
	groups   map[*sparql.Group]*groupTrace
	patterns map[string]*patternStat

	matchCalls int64
	matched    int64
	bindings   int64

	// Vectorized-execution accounting: per-group operator rows plus the
	// headline totals plan.run adds after each pipeline run.
	vecGroups    map[*sparql.Group]*vecGroupTrace
	vectorized   bool
	vecBatches   int64
	vecRows      int64
	vecAggGroups int64
	vecSortRows  int64
	vecSortTopK  int64

	whereNanos, aggNanos, projNanos, sortNanos int64
}

func newTraceCollector() *traceCollector {
	return &traceCollector{
		groups:   map[*sparql.Group]*groupTrace{},
		patterns: map[string]*patternStat{},
	}
}

// groupTrace holds the per-step counters of one executed group graph
// pattern. Step rows align with the group's compiled step sequence
// (compilation is deterministic, so a group re-compiled against another
// graph shares the same rows).
type groupTrace struct {
	steps []*stepTrace
}

// stepTrace is one plan node with its runtime counters.
type stepTrace struct {
	kind     string
	detail   string
	children []*sparql.Group
	patterns []sparql.TriplePattern

	calls   int64 // input bindings the step was run with
	emitted int64 // bindings the step yielded downstream
}

// patternStat counts candidate bindings one triple pattern emitted
// (keyed by the pattern's text across the whole plan).
type patternStat struct {
	emitted int64
}

var noopPhaseStop = func() {}

// startPhase begins timing a pipeline phase; the returned func adds the
// elapsed time. A nil collector returns a shared no-op.
func (tr *traceCollector) startPhase(p phase) func() {
	if tr == nil {
		return noopPhaseStop
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0).Nanoseconds()
		switch p {
		case phaseWhere:
			tr.whereNanos += d
		case phaseAgg:
			tr.aggNanos += d
		case phaseProj:
			tr.projNanos += d
		case phaseSort:
			tr.sortNanos += d
		}
	}
}

// patternStat returns the counter for a triple pattern, creating it on
// first use.
func (tr *traceCollector) patternStat(tp sparql.TriplePattern) *patternStat {
	key := tp.String()
	ps, ok := tr.patterns[key]
	if !ok {
		ps = &patternStat{}
		tr.patterns[key] = ps
	}
	return ps
}

// wrap instruments a group's compiled step sequence, registering (or
// reusing) the group's trace rows and wrapping each step in a counting
// shim. Called from compiledSteps once per (group, graph) per
// execution.
func (tr *traceCollector) wrap(g *sparql.Group, steps []step) []step {
	gt, ok := tr.groups[g]
	if !ok {
		gt = &groupTrace{steps: make([]*stepTrace, len(steps))}
		for i, st := range steps {
			row := &stepTrace{}
			row.kind, row.detail, row.children, row.patterns = describeStep(st)
			gt.steps[i] = row
		}
		tr.groups[g] = gt
	}
	out := make([]step, len(steps))
	for i, st := range steps {
		out[i] = &tracedStep{inner: st, st: gt.steps[i]}
	}
	return out
}

// vecGroupTrace holds the operator counter rows of one group's
// vectorized plan; covered is how many leading tuple steps the vec
// pipeline replaces (their rows are elided from the rendering unless
// the tuple path also ran them). sub holds the per-branch operator rows
// of union ops, keyed by the op's index in ops.
type vecGroupTrace struct {
	ops     []*vecOpTrace
	covered int
	sub     map[int][][]*vecOpTrace
}

// vecOpTrace is one vectorized operator with its runtime counters.
type vecOpTrace struct {
	kind, detail  string
	batches, rows int64
}

// registerVec attaches counter rows to a group's vectorized plan,
// reusing existing rows when the group is re-planned (by a nested
// context) so the report aggregates across executions, like wrap.
// Union operators additionally get one row set per branch so EXPLAIN
// ANALYZE attributes rows/batches to the branch that produced them.
func (tr *traceCollector) registerVec(g *sparql.Group, pl *vecPlan) {
	if tr.vecGroups == nil {
		tr.vecGroups = map[*sparql.Group]*vecGroupTrace{}
	}
	vt, ok := tr.vecGroups[g]
	if !ok || len(vt.ops) != len(pl.ops) {
		vt = &vecGroupTrace{ops: make([]*vecOpTrace, len(pl.ops)), covered: pl.covered}
		for i, op := range pl.ops {
			k, d := op.describe()
			vt.ops[i] = &vecOpTrace{kind: k, detail: d}
		}
		tr.vecGroups[g] = vt
	}
	pl.opTr = vt.ops
	for i, op := range pl.ops {
		u, isUnion := op.(*vecUnion)
		if !isUnion {
			continue
		}
		if vt.sub == nil {
			vt.sub = map[int][][]*vecOpTrace{}
		}
		rows, ok := vt.sub[i]
		if !ok || len(rows) != len(u.branches) {
			rows = make([][]*vecOpTrace, len(u.branches))
			for bi := range u.branches {
				br := &u.branches[bi]
				rows[bi] = make([]*vecOpTrace, len(br.ops))
				for oi, bop := range br.ops {
					k, d := bop.describe()
					rows[bi][oi] = &vecOpTrace{kind: k, detail: d}
				}
			}
			vt.sub[i] = rows
		}
		for bi := range u.branches {
			if len(rows[bi]) == len(u.branches[bi].ops) {
				u.branches[bi].opTr = rows[bi]
			}
		}
	}
}

// tracedStep counts a step's input bindings and emissions around the
// wrapped step's run.
type tracedStep struct {
	inner step
	st    *stepTrace
}

func (t *tracedStep) certainVars(into map[string]bool) { t.inner.certainVars(into) }

func (t *tracedStep) run(c *evalCtx, b Binding, yield func(Binding) error) error {
	t.st.calls++
	return t.inner.run(c, b, func(b2 Binding) error {
		t.st.emitted++
		return yield(b2)
	})
}

// describeStep classifies a compiled step for plan rendering: its node
// kind, a one-line detail, the nested groups it may enter, and (for
// BGPs) its triple patterns.
func describeStep(st step) (kind, detail string, children []*sparql.Group, patterns []sparql.TriplePattern) {
	switch v := st.(type) {
	case *bgpStep:
		return "bgp", fmt.Sprintf("%d pattern(s), cost-ordered", len(v.patterns)), nil, v.patterns
	case *filterStep:
		return "filter", v.cond.String(), nil, nil
	case *bindStep:
		return "bind", fmt.Sprintf("?%s := %s", v.name, v.expr.String()), nil, nil
	case *optionalStep:
		return "optional", "left join", []*sparql.Group{v.group}, nil
	case *unionStep:
		return "union", fmt.Sprintf("%d branches", len(v.branches)), v.branches, nil
	case *minusStep:
		return "minus", "anti-join", []*sparql.Group{v.group}, nil
	case *graphStep:
		if v.clause.Var != "" {
			return "graph", "?" + v.clause.Var, []*sparql.Group{v.clause.Group}, nil
		}
		return "graph", fmt.Sprintf("%v", v.clause.Name), []*sparql.Group{v.clause.Group}, nil
	case *subgroupStep:
		return "group", "", []*sparql.Group{v.group}, nil
	case *subSelectStep:
		var ch []*sparql.Group
		if v.q.Where != nil {
			ch = append(ch, v.q.Where)
		}
		return "subquery", "evaluated bottom-up, joined on projected vars", ch, nil
	case *valuesStep:
		return "values", fmt.Sprintf("%d rows over %v", len(v.data.Rows), v.data.Vars), nil, nil
	default:
		return fmt.Sprintf("%T", st), "", nil, nil
	}
}

// finish assembles the Trace after an execution.
func (tr *traceCollector) finish(q *sparql.Query, total time.Duration, res *Results, err error) *Trace {
	t := &Trace{
		TotalNanos:     total.Nanoseconds(),
		WhereNanos:     tr.whereNanos,
		AggNanos:       tr.aggNanos,
		ProjNanos:      tr.projNanos,
		SortNanos:      tr.sortNanos,
		Bindings:       tr.bindings,
		MatchCalls:     tr.matchCalls,
		Matched:        tr.matched,
		ChunkFetches:   tr.fetch.Fetched.Load(),
		ChunkWaitNanos: tr.fetch.WaitNanos.Load(),
		Vectorized:     tr.vectorized,
		VecBatches:     tr.vecBatches,
		VecRows:        tr.vecRows,
	}
	t.VecAggGroups = tr.vecAggGroups
	t.VecSortRows = tr.vecSortRows
	t.VecSortTopK = tr.vecSortTopK
	if res != nil {
		t.Rows = res.Len()
	}
	if err != nil {
		t.Error = err.Error()
	}
	t.Plan = tr.renderPlan(q)
	return t
}

// renderPlan walks the query's WHERE clause and renders each executed
// group's steps with their counters; groups that were compiled but
// never entered (or never compiled at all) are marked.
func (tr *traceCollector) renderPlan(q *sparql.Query) string {
	var sb strings.Builder
	if q.Where == nil {
		sb.WriteString("  (no WHERE clause)\n")
	} else {
		tr.renderGroup(q.Where, &sb, 1)
	}
	if len(q.GroupBy) > 0 {
		fmt.Fprintf(&sb, "  group by %d expression(s)\n", len(q.GroupBy))
	}
	if tr.vecAggGroups > 0 {
		fmt.Fprintf(&sb, "  aggregate: batch-native over ID columns, %d group(s)\n", tr.vecAggGroups)
	}
	if len(q.OrderBy) > 0 {
		if tr.vecSortRows > 0 {
			line := fmt.Sprintf("  order by %d criterion(s): vectorized, %d ID row(s) sorted", len(q.OrderBy), tr.vecSortRows)
			if tr.vecSortTopK > 0 {
				line += fmt.Sprintf(", top-k heap bound=%d", tr.vecSortTopK)
			}
			sb.WriteString(line + "\n")
		} else {
			fmt.Fprintf(&sb, "  order by %d criterion(s)\n", len(q.OrderBy))
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&sb, "  limit %d\n", q.Limit)
	}
	return sb.String()
}

func (tr *traceCollector) renderGroup(g *sparql.Group, sb *strings.Builder, depth int) {
	gt, ok := tr.groups[g]
	if !ok {
		indent(sb, depth)
		sb.WriteString("(not executed)\n")
		return
	}
	covered := 0
	if vt, ok := tr.vecGroups[g]; ok {
		for i, op := range vt.ops {
			indent(sb, depth)
			line := op.kind
			if op.detail != "" {
				line += " " + op.detail
			}
			fmt.Fprintf(sb, "%-58s batches=%d rows=%d\n", line, op.batches, op.rows)
			for bi, branch := range vt.sub[i] {
				indent(sb, depth+1)
				fmt.Fprintf(sb, "branch %d:\n", bi)
				for _, bop := range branch {
					indent(sb, depth+2)
					bl := bop.kind
					if bop.detail != "" {
						bl += " " + bop.detail
					}
					fmt.Fprintf(sb, "%-54s batches=%d rows=%d\n", bl, bop.batches, bop.rows)
				}
			}
		}
		covered = vt.covered
		// The vectorized prefix ended mid-group: everything below this
		// line ran tuple-at-a-time over decoded bindings.
		if covered > 0 && covered < len(gt.steps) {
			indent(sb, depth)
			fmt.Fprintf(sb, "-- fallback boundary: %d step(s) below run tuple-at-a-time --\n", len(gt.steps)-covered)
		}
	}
	for i, row := range gt.steps {
		// Tuple rows the vec pipeline replaced are elided unless the
		// tuple path also executed them (a mixed execution).
		if i < covered && row.calls == 0 {
			continue
		}
		indent(sb, depth)
		line := row.kind
		if row.detail != "" {
			line += " " + row.detail
		}
		fmt.Fprintf(sb, "%-58s calls=%d emitted=%d\n", line, row.calls, row.emitted)
		for _, tp := range row.patterns {
			indent(sb, depth+1)
			key := tp.String()
			matched := int64(0)
			if ps, ok := tr.patterns[key]; ok {
				matched = ps.emitted
			}
			fmt.Fprintf(sb, "%-56s matched=%d\n", key, matched)
		}
		for _, child := range row.children {
			tr.renderGroup(child, sb, depth+1)
		}
	}
}
