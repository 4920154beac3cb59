// Package protocol defines the wire format between an SSDM server and
// its clients (dissertation §5.1, §7.3): newline-delimited JSON
// request/response pairs over TCP, with array values carried as
// base64-encoded binary serializations so that numeric payloads do not
// suffer JSON number inflation.
//
// This is the protocol the Matlab integration of chapter 7 speaks; the
// Go client in internal/ssdmclient plays Matlab's role.
package protocol

import (
	"encoding/base64"
	"fmt"
	"time"

	"scisparql/internal/array"
	"scisparql/internal/engine"
	"scisparql/internal/rdf"
)

// Op identifies a request kind.
const (
	OpPing        = "ping"
	OpQuery       = "query"        // Text: a SciSPARQL query
	OpExecute     = "execute"      // Text: statements; responses carry last query result
	OpUpdate      = "update"       // Text: a single update
	OpLoadTurtle  = "load_turtle"  // Text: a Turtle document, Graph optional
	OpStoreArray  = "store_array"  // Array payload -> ArrayID
	OpArrayTriple = "array_triple" // Subject, Property, Array: store + link
	OpStats       = "stats"        // instance metrics snapshot -> Stats
	OpExplain     = "explain"      // Text: a query; plan only, or executed plan + trace with Analyze
)

// Request is one client request. The guard fields bound the request's
// execution server-side; zero values fall back to the server's
// configured defaults (they can tighten the defaults, never loosen
// them).
type Request struct {
	Op       string `json:"op"`
	Text     string `json:"text,omitempty"`
	Graph    string `json:"graph,omitempty"`
	Subject  string `json:"subject,omitempty"`
	Property string `json:"property,omitempty"`
	Array    string `json:"array,omitempty"` // base64(array.Marshal)

	// TimeoutMS is the wall-clock deadline for this request in
	// milliseconds (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRows caps result rows (0 = server default).
	MaxRows int `json:"max_rows,omitempty"`
	// MaxBindings caps intermediate bindings (0 = server default).
	MaxBindings int64 `json:"max_bindings,omitempty"`

	// Analyze upgrades an OpExplain request from plan-only to EXPLAIN
	// ANALYZE: the query is executed and the response carries the
	// executed plan annotated with timings and counters (Trace) along
	// with the result rows.
	Analyze bool `json:"analyze,omitempty"`
}

// Limits returns the request's guard fields as engine limits.
func (r *Request) Limits() engine.Limits {
	return engine.Limits{
		Timeout:       time.Duration(r.TimeoutMS) * time.Millisecond,
		MaxResultRows: r.MaxRows,
		MaxBindings:   r.MaxBindings,
	}
}

// SetLimits sets the request's guard fields from lim; a timeout below
// one millisecond is sent as none.
func (r *Request) SetLimits(lim engine.Limits) {
	r.TimeoutMS = lim.Timeout.Milliseconds()
	r.MaxRows = lim.MaxResultRows
	r.MaxBindings = lim.MaxBindings
}

// Error codes carried in Response.Code so clients can classify
// failures without parsing message text.
const (
	// CodeError is a generic request failure (parse error, unknown
	// graph, bad payload, ...).
	CodeError = "error"
	// CodeTimeout reports that the query exceeded its deadline.
	CodeTimeout = "timeout"
	// CodeResourceLimit reports that a result-row or bindings budget
	// was exceeded.
	CodeResourceLimit = "resource_limit"
	// CodeCancelled reports that the request's context was cancelled
	// (client disconnect, server shutdown).
	CodeCancelled = "cancelled"
	// CodeInternal reports a trapped server-side panic; the server
	// keeps serving.
	CodeInternal = "internal"
	// CodeShutdown reports that the server is draining and no longer
	// accepts work.
	CodeShutdown = "shutdown"
	// CodeDurability reports that an update could not be made durable
	// (write-ahead log append or sync failed); the update was not
	// applied and the client may retry once the operator intervenes.
	CodeDurability = "durability"
	// CodeShardUnavailable reports that a shard of a partitioned
	// deployment could not be reached; partial results were suppressed
	// and the request may be retried once the shard is back.
	CodeShardUnavailable = "shard_unavailable"
)

// Term is the JSON encoding of one RDF term.
type Term struct {
	T     string  `json:"t"` // iri blank str int float bool datetime typed array
	S     string  `json:"s,omitempty"`
	I     int64   `json:"i,omitempty"`
	F     float64 `json:"f,omitempty"`
	Lang  string  `json:"lang,omitempty"`
	Dt    string  `json:"dt,omitempty"`
	Array string  `json:"array,omitempty"` // base64(array.Marshal)
}

// Response is one server reply.
type Response struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	Code    string   `json:"code,omitempty"` // error class, one of the Code constants
	Vars    []string `json:"vars,omitempty"`
	Rows    [][]Term `json:"rows,omitempty"`
	Bool    bool     `json:"bool,omitempty"`
	Count   int      `json:"count,omitempty"`
	ArrayID int64    `json:"array_id,omitempty"`
	// Stats carries the OpStats snapshot: every instance series keyed
	// as in the /metrics exposition (see core.SSDM.MetricsSnapshot).
	Stats map[string]float64 `json:"stats,omitempty"`

	// Explain carries the rendered plan for OpExplain (static plan, or
	// the annotated executed plan when the request set Analyze).
	Explain string `json:"explain,omitempty"`
	// Trace carries the execution profile for OpExplain+Analyze.
	Trace *engine.Trace `json:"trace,omitempty"`
}

// EncodeTerm converts an RDF term to its wire form.
func EncodeTerm(t rdf.Term) (Term, error) {
	switch v := t.(type) {
	case nil:
		return Term{T: "unbound"}, nil
	case rdf.IRI:
		return Term{T: "iri", S: string(v)}, nil
	case rdf.Blank:
		return Term{T: "blank", S: string(v)}, nil
	case rdf.String:
		return Term{T: "str", S: v.Val, Lang: v.Lang}, nil
	case rdf.Integer:
		return Term{T: "int", I: int64(v)}, nil
	case rdf.Float:
		return Term{T: "float", F: float64(v)}, nil
	case rdf.Boolean:
		b := int64(0)
		if v {
			b = 1
		}
		return Term{T: "bool", I: b}, nil
	case rdf.DateTime:
		return Term{T: "datetime", S: v.T.Format(time.RFC3339Nano)}, nil
	case rdf.Typed:
		return Term{T: "typed", S: v.Lexical, Dt: string(v.Datatype)}, nil
	case rdf.Array:
		b, err := array.Marshal(v.A)
		if err != nil {
			return Term{}, err
		}
		return Term{T: "array", Array: base64.StdEncoding.EncodeToString(b)}, nil
	default:
		return Term{}, fmt.Errorf("protocol: cannot encode %T", t)
	}
}

// DecodeTerm converts a wire term back to an RDF term (nil for
// unbound).
func DecodeTerm(t Term) (rdf.Term, error) {
	switch t.T {
	case "unbound":
		return nil, nil
	case "iri":
		return rdf.IRI(t.S), nil
	case "blank":
		return rdf.Blank(t.S), nil
	case "str":
		return rdf.String{Val: t.S, Lang: t.Lang}, nil
	case "int":
		return rdf.Integer(t.I), nil
	case "float":
		return rdf.Float(t.F), nil
	case "bool":
		return rdf.Boolean(t.I != 0), nil
	case "datetime":
		ts, err := time.Parse(time.RFC3339Nano, t.S)
		if err != nil {
			return nil, fmt.Errorf("protocol: bad datetime %q", t.S)
		}
		return rdf.DateTime{T: ts}, nil
	case "typed":
		return rdf.Typed{Lexical: t.S, Datatype: rdf.IRI(t.Dt)}, nil
	case "array":
		a, err := DecodeArray(t.Array)
		if err != nil {
			return nil, err
		}
		return rdf.NewArray(a), nil
	default:
		return nil, fmt.Errorf("protocol: unknown term kind %q", t.T)
	}
}

// EncodeArray serializes an array for the wire.
func EncodeArray(a *array.Array) (string, error) {
	b, err := array.Marshal(a)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeArray reverses EncodeArray.
func DecodeArray(s string) (*array.Array, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("protocol: bad array payload: %w", err)
	}
	return array.Unmarshal(b)
}
