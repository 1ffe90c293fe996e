// Package sparql implements the declarative query interface of Wukong+S:
// a practical subset of SPARQL 1.1 extended with C-SPARQL's continuous
// constructs (Barbieri et al., "C-SPARQL: A Continuous Query Language for
// RDF Data Streams").
//
// Supported surface:
//
//	PREFIX ex: <http://example.org/>
//	REGISTER QUERY name AS            # marks a continuous query
//	SELECT [DISTINCT] ?x (COUNT(?y) AS ?c) ...
//	FROM STREAM <s> [RANGE 10s STEP 1s]
//	FROM <graph>
//	WHERE {
//	  ?x ex:p ?y .
//	  GRAPH STREAM <s> { ?y ex:q ?z }
//	  GRAPH <graph>    { ?z ex:r ?w }
//	  OPTIONAL { ?x ex:nick ?n }
//	  FILTER (?v > 30 && ?w != ex:bad)
//	}
//	GROUP BY ?x
//	ORDER BY DESC(?v) ?x
//	LIMIT 100 OFFSET 10
//
// Variable predicates (?s ?p ?o) are supported over stored data when at
// least one endpoint is bound (they read the store's per-vertex predicate
// index); the planner rejects them over stream windows.
//
// A WHERE body may instead be a top-level UNION of braced alternatives:
//
//	WHERE { { ?x ex:p ?y } UNION { ?x ex:q ?y . FILTER (?y != ex:z) } }
//
// Bare identifiers in stream/graph positions are accepted as IRIs (the
// paper's examples write `FROM Tweet_Stream [RANGE 10s STEP 1s]`).
package sparql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rdf"
)

// GraphKind distinguishes where a pattern's data lives.
type GraphKind uint8

const (
	// DefaultGraph patterns match the stored knowledge base.
	DefaultGraph GraphKind = iota
	// NamedGraph patterns match a named stored graph. The engine treats all
	// stored graphs as one store (as Wukong does); the name documents intent.
	NamedGraph
	// StreamGraph patterns match a stream's current window.
	StreamGraph
)

// GraphRef names the graph or stream a pattern group is scoped to.
type GraphRef struct {
	Kind GraphKind
	Name string // IRI of the named graph or stream; empty for DefaultGraph
}

func (g GraphRef) String() string {
	switch g.Kind {
	case NamedGraph:
		return "GRAPH <" + g.Name + ">"
	case StreamGraph:
		return "GRAPH STREAM <" + g.Name + ">"
	default:
		return "GRAPH DEFAULT"
	}
}

// PatternTerm is one position of a triple pattern: a variable or a constant.
type PatternTerm struct {
	IsVar bool
	Var   string   // without the leading '?'
	Term  rdf.Term // valid when !IsVar
}

// Variable returns a variable pattern term.
func Variable(name string) PatternTerm { return PatternTerm{IsVar: true, Var: name} }

// Constant returns a constant pattern term.
func Constant(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

func (p PatternTerm) String() string {
	if p.IsVar {
		return "?" + p.Var
	}
	return p.Term.String()
}

// Pattern is a triple pattern scoped to a graph.
type Pattern struct {
	Graph   GraphRef
	S, P, O PatternTerm
}

func (p Pattern) String() string {
	return fmt.Sprintf("%s %s %s", p.S, p.P, p.O)
}

// Vars returns the distinct variable names in the pattern.
func (p Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range []PatternTerm{p.S, p.P, p.O} {
		if t.IsVar && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// StreamWindow is a FROM STREAM clause: the logical window over one stream.
type StreamWindow struct {
	Stream string        // stream IRI
	Range  time.Duration // window width
	Step   time.Duration // slide step (also the execution period)
}

func (w StreamWindow) String() string {
	return fmt.Sprintf("FROM STREAM <%s> [RANGE %v STEP %v]", w.Stream, w.Range, w.Step)
}

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

const (
	// AggNone marks a plain variable projection.
	AggNone AggKind = iota
	// AggCount is COUNT(?v) or COUNT(*).
	AggCount
	// AggSum is SUM(?v).
	AggSum
	// AggAvg is AVG(?v).
	AggAvg
	// AggMin is MIN(?v).
	AggMin
	// AggMax is MAX(?v).
	AggMax
)

func (a AggKind) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(a))
	}
}

// Projection is one SELECT item: a variable, or an aggregate over a variable
// bound to an output name.
type Projection struct {
	Agg AggKind
	Var string // the projected or aggregated variable; "*" for COUNT(*)
	As  string // output name; defaults to Var for plain projections
}

func (p Projection) String() string {
	if p.Agg == AggNone {
		return "?" + p.Var
	}
	arg := "?" + p.Var
	if p.Var == "*" {
		arg = "*"
	}
	return fmt.Sprintf("(%s(%s) AS ?%s)", p.Agg, arg, p.As)
}

// CmpOp enumerates FILTER comparison operators.
type CmpOp uint8

const (
	// OpEQ is '='.
	OpEQ CmpOp = iota
	// OpNE is '!='.
	OpNE
	// OpLT is '<'.
	OpLT
	// OpLE is '<='.
	OpLE
	// OpGT is '>'.
	OpGT
	// OpGE is '>='.
	OpGE
)

func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Expr is a FILTER expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Operand is a comparison operand: a variable or a constant term.
type Operand struct {
	IsVar bool
	Var   string
	Term  rdf.Term
}

func (o Operand) String() string {
	if o.IsVar {
		return "?" + o.Var
	}
	return o.Term.String()
}

// Cmp is a binary comparison.
type Cmp struct {
	Op       CmpOp
	LHS, RHS Operand
}

func (c Cmp) exprNode() {}
func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.LHS, c.Op, c.RHS)
}

// And is a conjunction of expressions.
type And struct{ Exprs []Expr }

func (a And) exprNode() {}
func (a And) String() string {
	parts := make([]string, len(a.Exprs))
	for i, e := range a.Exprs {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " && ") + ")"
}

// Or is a disjunction of expressions.
type Or struct{ Exprs []Expr }

func (o Or) exprNode() {}
func (o Or) String() string {
	parts := make([]string, len(o.Exprs))
	for i, e := range o.Exprs {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " || ") + ")"
}

// Not negates an expression.
type Not struct{ Expr Expr }

func (n Not) exprNode() {}
func (n Not) String() string {
	return "(!" + n.Expr.String() + ")"
}

// OrderKey is one ORDER BY sort key over a projected name.
type OrderKey struct {
	Var  string // the projected output name (Projection.As)
	Desc bool
}

func (k OrderKey) String() string {
	if k.Desc {
		return "DESC(?" + k.Var + ")"
	}
	return "?" + k.Var
}

// OptionalGroup is an OPTIONAL { ... } block: its patterns (and filters)
// extend solutions when they match and leave new variables unbound when
// they do not (left-join semantics).
type OptionalGroup struct {
	Patterns []Pattern
	Filters  []Expr
}

// Vars returns the distinct variables bound inside the group.
func (g OptionalGroup) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range g.Patterns {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// UnionBranch is one alternative of a top-level UNION body.
type UnionBranch struct {
	Patterns []Pattern
	Filters  []Expr
}

// Query is a parsed C-SPARQL query.
type Query struct {
	Text       string // original query text (kept for logging and FT)
	Name       string // REGISTER QUERY name; empty for one-shot queries
	Continuous bool   // true iff the query declares stream windows or REGISTER
	Ask        bool   // ASK query: the result is whether any solution exists
	Distinct   bool
	Select     []Projection
	Windows    []StreamWindow
	Graphs     []string // FROM <g> stored graphs
	Patterns   []Pattern
	Optionals  []OptionalGroup
	Unions     []UnionBranch // set instead of Patterns for UNION bodies
	Filters    []Expr
	GroupBy    []string
	OrderBy    []OrderKey
	Limit      int // 0 = unlimited
	Offset     int
}

// Window returns the window declared for a stream IRI.
func (q *Query) Window(stream string) (StreamWindow, bool) {
	for _, w := range q.Windows {
		if w.Stream == stream {
			return w, true
		}
	}
	return StreamWindow{}, false
}

// HasAggregates reports whether any projection aggregates.
func (q *Query) HasAggregates() bool {
	for _, p := range q.Select {
		if p.Agg != AggNone {
			return true
		}
	}
	return false
}

// Streams returns the distinct stream IRIs referenced by window clauses.
func (q *Query) Streams() []string {
	out := make([]string, 0, len(q.Windows))
	for _, w := range q.Windows {
		out = append(out, w.Stream)
	}
	return out
}

// Validate checks structural invariants beyond syntax: every stream pattern
// has a window, projected variables occur in the body, aggregates and plain
// projections are not mixed without GROUP BY.
func (q *Query) Validate() error {
	bodyVars := map[string]bool{}
	checkPattern := func(p Pattern) error {
		for _, v := range p.Vars() {
			bodyVars[v] = true
		}
		if p.Graph.Kind == StreamGraph {
			if _, ok := q.Window(p.Graph.Name); !ok {
				return fmt.Errorf("sparql: pattern %q uses stream <%s> with no FROM STREAM window", p, p.Graph.Name)
			}
		}
		return nil
	}
	for _, p := range q.Patterns {
		if err := checkPattern(p); err != nil {
			return err
		}
	}
	for _, g := range q.Optionals {
		if len(g.Patterns) == 0 {
			return fmt.Errorf("sparql: empty OPTIONAL group")
		}
		for _, p := range g.Patterns {
			if err := checkPattern(p); err != nil {
				return err
			}
		}
		for _, f := range g.Filters {
			for _, v := range exprVars(f) {
				if !bodyVars[v] {
					return fmt.Errorf("sparql: OPTIONAL FILTER references unbound ?%s", v)
				}
			}
		}
	}
	if len(q.Unions) > 0 {
		if q.HasAggregates() {
			return fmt.Errorf("sparql: aggregates over UNION bodies are not supported")
		}
		branchVars := make([]map[string]bool, len(q.Unions))
		for i, br := range q.Unions {
			if len(br.Patterns) == 0 {
				return fmt.Errorf("sparql: empty UNION branch")
			}
			branchVars[i] = map[string]bool{}
			for _, p := range br.Patterns {
				if err := checkPattern(p); err != nil {
					return err
				}
				for _, v := range p.Vars() {
					branchVars[i][v] = true
				}
			}
			for _, f := range br.Filters {
				for _, v := range exprVars(f) {
					if !branchVars[i][v] {
						return fmt.Errorf("sparql: UNION branch FILTER references unbound ?%s", v)
					}
				}
			}
		}
		for _, pr := range q.Select {
			for i := range q.Unions {
				if !branchVars[i][pr.Var] {
					return fmt.Errorf("sparql: projected ?%s is not bound in every UNION branch", pr.Var)
				}
			}
		}
		projected := map[string]bool{}
		for _, p := range q.Select {
			projected[p.As] = true
		}
		for _, k := range q.OrderBy {
			if !projected[k.Var] {
				return fmt.Errorf("sparql: ORDER BY ?%s is not a projected name", k.Var)
			}
		}
		return nil
	}
	if len(q.Patterns) == 0 {
		return fmt.Errorf("sparql: query has no triple patterns")
	}
	grouped := map[string]bool{}
	for _, g := range q.GroupBy {
		if !bodyVars[g] {
			return fmt.Errorf("sparql: GROUP BY ?%s is not bound in the body", g)
		}
		grouped[g] = true
	}
	hasAgg := q.HasAggregates()
	for _, p := range q.Select {
		if p.Agg == AggNone {
			if !bodyVars[p.Var] {
				return fmt.Errorf("sparql: projected ?%s is not bound in the body", p.Var)
			}
			if hasAgg && !grouped[p.Var] {
				return fmt.Errorf("sparql: ?%s must appear in GROUP BY when aggregating", p.Var)
			}
		} else if p.Var != "*" && !bodyVars[p.Var] {
			return fmt.Errorf("sparql: aggregated ?%s is not bound in the body", p.Var)
		}
	}
	for _, f := range q.Filters {
		for _, v := range exprVars(f) {
			if !bodyVars[v] {
				return fmt.Errorf("sparql: FILTER references unbound ?%s", v)
			}
		}
	}
	projected := map[string]bool{}
	for _, p := range q.Select {
		projected[p.As] = true
	}
	for _, k := range q.OrderBy {
		if !projected[k.Var] {
			return fmt.Errorf("sparql: ORDER BY ?%s is not a projected name", k.Var)
		}
	}
	if q.Ask && (len(q.Select) > 0 || len(q.OrderBy) > 0 || len(q.GroupBy) > 0) {
		return fmt.Errorf("sparql: ASK queries take no projections or modifiers")
	}
	return nil
}

func exprVars(e Expr) []string {
	switch x := e.(type) {
	case Cmp:
		var out []string
		if x.LHS.IsVar {
			out = append(out, x.LHS.Var)
		}
		if x.RHS.IsVar {
			out = append(out, x.RHS.Var)
		}
		return out
	case And:
		var out []string
		for _, sub := range x.Exprs {
			out = append(out, exprVars(sub)...)
		}
		return out
	case Or:
		var out []string
		for _, sub := range x.Exprs {
			out = append(out, exprVars(sub)...)
		}
		return out
	case Not:
		return exprVars(x.Expr)
	default:
		return nil
	}
}
