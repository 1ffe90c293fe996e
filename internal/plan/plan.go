// Package plan compiles parsed C-SPARQL queries into executable
// graph-exploration plans and chooses the pattern order.
//
// Wukong-style execution (§2.3, §4.2 of the paper; Shi et al., OSDI'16)
// explores the graph from constants: each step extends a table of variable
// bindings by following one triple pattern's edges. The plan is the order in
// which patterns run. Order matters enormously — the paper's Fig. 4 shows a
// composite system forced into a plan that is 2.4× slower because it cannot
// prune intermediate results early. This planner greedily picks the
// cheapest-to-start pattern first (constants beat index scans, small indexes
// beat big ones, stream windows scale estimates down by their window
// fraction) and then repeatedly extends from already-bound variables,
// preferring patterns that check rather than expand.
package plan

import (
	"fmt"
	"math"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// StepKind enumerates plan step varieties.
type StepKind uint8

const (
	// SeedConst seeds the binding table from a constant endpoint.
	SeedConst StepKind = iota
	// SeedIndex seeds the binding table from a predicate's index vertex.
	SeedIndex
	// Expand extends each row by following edges from a bound variable.
	Expand
	// Check matches edges between two bound endpoints (or a bound endpoint
	// and a constant): a row is kept once per matching edge, and dropped
	// if there is none.
	Check
	// Filter applies a FILTER expression to each row.
	Filter
)

func (k StepKind) String() string {
	return [...]string{"seed-const", "seed-index", "expand", "check", "filter"}[k]
}

// Endpoint is one side of a compiled pattern: a variable name or an encoded
// constant ID.
type Endpoint struct {
	Var   string // non-empty for variables
	Const rdf.ID // valid when Var == ""
}

// IsVar reports whether the endpoint is a variable.
func (e Endpoint) IsVar() bool { return e.Var != "" }

// Step is one executable plan step.
type Step struct {
	Kind StepKind

	// Pattern fields (valid for all kinds except Filter).
	Pid     rdf.ID          // predicate ID (0 when PVar is set)
	PVar    string          // variable-predicate name: the step enumerates the origin's predicate index
	From    Endpoint        // traversal origin (bound side)
	To      Endpoint        // traversal target
	Dir     store.Dir       // edge direction when reading From's neighbor list
	Graph   sparql.GraphRef // data source (stored or stream window)
	EstRows float64         // planner's cardinality estimate after this step

	// Filter fields.
	Expr sparql.Expr
}

func (s Step) String() string {
	if s.Kind == Filter {
		return fmt.Sprintf("filter %s", s.Expr)
	}
	pred := fmt.Sprintf("%d", s.Pid)
	if s.PVar != "" {
		pred = "?" + s.PVar
	}
	return fmt.Sprintf("%s %s -[%s/%s]-> %s (%s, est %.0f)",
		s.Kind, endpointStr(s.From), pred, s.Dir, endpointStr(s.To), s.Graph, s.EstRows)
}

func endpointStr(e Endpoint) string {
	if e.IsVar() {
		return "?" + e.Var
	}
	return fmt.Sprintf("#%d", e.Const)
}

// OptionalSteps is one compiled OPTIONAL group.
type OptionalSteps struct {
	Steps []Step
	// Vars are the group's newly bound variables (left unbound when the
	// group does not match).
	Vars []string
	// Never is set when a group constant is unknown: the group can never
	// match, so its variables are always unbound.
	Never bool
}

// Plan is a compiled, ordered query.
type Plan struct {
	Query     *sparql.Query
	Steps     []Step
	Optionals []OptionalSteps
	// PostFilters are FILTERs whose variables only bind inside OPTIONAL
	// groups; they run after the optionals apply.
	PostFilters []sparql.Expr
	// Unions holds one sub-plan per UNION branch (the top plan then has no
	// steps of its own); branches whose constants are unknown are omitted.
	Unions []*Plan
	// Empty is set when a constant in the query is unknown to the string
	// server: the result is necessarily empty and execution can be skipped.
	Empty bool
	// EstCost is the planner's total cost estimate (for diagnostics and for
	// the composite-baseline comparison in Fig. 4).
	EstCost float64
}

// Encoder resolves query terms to IDs. The string server implements it.
type Encoder interface {
	LookupEntity(t rdf.Term) (rdf.ID, bool)
	LookupPredicate(iri string) (rdf.ID, bool)
}

// StatsProvider supplies cardinality statistics. The sharded store
// implements PredStats; the engine layers window scaling on top.
type StatsProvider interface {
	// PredStats returns total edges, distinct subjects, and distinct objects
	// for a predicate.
	PredStats(pid rdf.ID) (edges, subjects, objects int64)
	// WindowFraction estimates the fraction of a stream's recent data that
	// one window covers, in (0,1]; it returns 1 for stored graphs.
	WindowFraction(g sparql.GraphRef) float64
}

// WindowStatsProvider optionally refines StatsProvider for stream patterns:
// a provider that also implements it supplies exact window-scoped counts
// (from the stream index's per-batch counters), replacing the coarse
// whole-store count × window fraction estimate. The engine implements it;
// baselines that only have global statistics keep the fallback.
type WindowStatsProvider interface {
	// WindowPredStats returns edges, distinct subjects, and distinct objects
	// for pid inside g's window. ok=false means no window-scoped statistics
	// are available for this graph (fall back to PredStats×WindowFraction).
	WindowPredStats(g sparql.GraphRef, pid rdf.ID) (edges, subjects, objects int64, ok bool)
}

// Compile encodes and orders a query. A query whose constants are unknown
// yields Empty=true. Variable predicates are rejected: Wukong's key layout
// requires a known predicate per traversal.
func Compile(q *sparql.Query, enc Encoder, stats StatsProvider) (*Plan, error) {
	if len(q.Unions) > 0 {
		return compileUnion(q, enc, stats)
	}
	type compiled struct {
		pid     rdf.ID
		pvar    string
		s, o    Endpoint
		graph   sparql.GraphRef
		edges   float64
		subj    float64
		obj     float64
		windowF float64
	}
	pats := make([]compiled, 0, len(q.Patterns))
	p := &Plan{Query: q}
	for _, pat := range q.Patterns {
		var pid rdf.ID
		var pvar string
		if pat.P.IsVar {
			// Variable predicates read the per-vertex predicate index,
			// which exists only in the persistent store.
			if pat.Graph.Kind == sparql.StreamGraph {
				return nil, fmt.Errorf("plan: variable predicates are not supported over stream windows (pattern %s)", pat)
			}
			pvar = pat.P.Var
		} else {
			var ok bool
			pid, ok = enc.LookupPredicate(pat.P.Term.Value)
			if !ok {
				p.Empty = true
				return p, nil
			}
		}
		c := compiled{pid: pid, pvar: pvar, graph: pat.Graph}
		if pat.S.IsVar {
			c.s = Endpoint{Var: pat.S.Var}
		} else {
			id, ok := enc.LookupEntity(pat.S.Term)
			if !ok {
				p.Empty = true
				return p, nil
			}
			c.s = Endpoint{Const: id}
		}
		if pat.O.IsVar {
			c.o = Endpoint{Var: pat.O.Var}
		} else {
			id, ok := enc.LookupEntity(pat.O.Term)
			if !ok {
				p.Empty = true
				return p, nil
			}
			c.o = Endpoint{Const: id}
		}
		if pvar == "" {
			e, s, o := stats.PredStats(pid)
			c.edges = math.Max(float64(e), 1)
			c.subj = math.Max(float64(s), 1)
			c.obj = math.Max(float64(o), 1)
		} else {
			// No per-predicate statistics apply: assume a wide fanout so
			// variable-predicate patterns schedule after selective ones.
			c.edges, c.subj, c.obj = 1e6, 1e4, 1e4
		}
		c.windowF = 1
		if pat.Graph.Kind == sparql.StreamGraph {
			// Window-scoped statistics, when the provider has them, estimate
			// the window's contents directly. Only without them is the
			// window's fraction asked for, to scale whole-store counts down.
			var e, s, o int64
			wsp, ok := stats.(WindowStatsProvider)
			if ok {
				e, s, o, ok = wsp.WindowPredStats(pat.Graph, pid)
			}
			if ok {
				c.edges = math.Max(float64(e), 1)
				c.subj = math.Max(float64(s), 1)
				c.obj = math.Max(float64(o), 1)
			} else {
				c.windowF = stats.WindowFraction(pat.Graph)
			}
		}
		pats = append(pats, c)
	}

	bound := map[string]bool{}
	used := make([]bool, len(pats))
	rows := 1.0 // current estimated table size

	// seedCost estimates starting a fresh exploration with pattern c.
	seedCost := func(c compiled) (cost, outRows float64) {
		switch {
		case !c.s.IsVar() && !c.o.IsVar():
			return 1, 1
		case !c.s.IsVar():
			fanout := c.edges / c.subj * c.windowF
			return 1 + fanout, math.Max(fanout, 0.01)
		case !c.o.IsVar():
			fanout := c.edges / c.obj * c.windowF
			return 1 + fanout, math.Max(fanout, 0.01)
		default:
			scan := c.edges * c.windowF
			return scan, math.Max(scan, 0.01)
		}
	}
	// extendCost estimates applying pattern c to the current table when at
	// least one endpoint variable is bound.
	extendCost := func(c compiled) (cost, outRows float64, ok bool) {
		sBound := !c.s.IsVar() || bound[c.s.Var]
		oBound := !c.o.IsVar() || bound[c.o.Var]
		switch {
		case sBound && oBound:
			return rows, rows * 0.5, true // existence check prunes
		case sBound:
			fanout := c.edges / c.subj * c.windowF
			return rows * (1 + fanout), rows * math.Max(fanout, 0.01), true
		case oBound:
			fanout := c.edges / c.obj * c.windowF
			return rows * (1 + fanout), rows * math.Max(fanout, 0.01), true
		default:
			return 0, 0, false
		}
	}

	appendStep := func(c compiled, idx int, seeding bool, outRows float64) {
		st := Step{Pid: c.pid, PVar: c.pvar, Graph: c.graph, EstRows: outRows}
		sBound := !c.s.IsVar() || bound[c.s.Var]
		oBound := !c.o.IsVar() || bound[c.o.Var]
		if c.pvar != "" {
			// Variable-predicate traversal needs a bound origin to read its
			// predicate index; both-unbound patterns would scan the world.
			switch {
			case sBound:
				st.Kind, st.From, st.To, st.Dir = Expand, c.s, c.o, store.Out
			case oBound:
				st.Kind, st.From, st.To, st.Dir = Expand, c.o, c.s, store.In
			default:
				panic("plan: unseedable variable-predicate pattern (checked in Compile)")
			}
			p.Steps = append(p.Steps, st)
			used[idx] = true
			bound[c.pvar] = true
			for _, e := range []Endpoint{c.s, c.o} {
				if e.IsVar() {
					bound[e.Var] = true
				}
			}
			return
		}
		switch {
		case seeding && !c.s.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, c.s, c.o, store.Out
		case seeding && !c.o.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, c.o, c.s, store.In
		case seeding:
			// Index seed: enumerate the smaller side of the index vertex.
			if c.subj <= c.obj {
				st.Kind, st.From, st.To, st.Dir = SeedIndex, c.s, c.o, store.Out
			} else {
				st.Kind, st.From, st.To, st.Dir = SeedIndex, c.o, c.s, store.In
			}
		case sBound && oBound:
			st.Kind, st.From, st.To, st.Dir = Check, c.s, c.o, store.Out
		case sBound:
			st.Kind, st.From, st.To, st.Dir = Expand, c.s, c.o, store.Out
		default:
			st.Kind, st.From, st.To, st.Dir = Expand, c.o, c.s, store.In
		}
		p.Steps = append(p.Steps, st)
		used[idx] = true
		for _, e := range []Endpoint{c.s, c.o} {
			if e.IsVar() {
				bound[e.Var] = true
			}
		}
	}

	for remaining := len(pats); remaining > 0; remaining-- {
		bestIdx, bestCost, bestRows, bestSeed := -1, math.Inf(1), 0.0, false
		for i, c := range pats {
			if used[i] {
				continue
			}
			hasBoundEndpoint := !c.s.IsVar() || bound[c.s.Var] || !c.o.IsVar() || bound[c.o.Var]
			if c.pvar != "" && !hasBoundEndpoint {
				continue // needs an origin; schedule after one binds
			}
			if cost, out, ok := extendCost(c); ok && len(p.Steps) > 0 {
				if cost < bestCost {
					bestIdx, bestCost, bestRows, bestSeed = i, cost, out, false
				}
				continue
			}
			if c.pvar != "" && !hasBoundEndpoint {
				continue
			}
			// Seeding mid-plan (disconnected pattern groups) multiplies
			// tables — charge the cartesian blowup.
			cost, out := seedCost(c)
			if len(p.Steps) > 0 {
				cost *= rows
				out *= rows
			}
			if cost < bestCost {
				bestIdx, bestCost, bestRows, bestSeed = i, cost, out, true
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("plan: variable-predicate pattern with no bound endpoint (add a pattern binding its subject or object)")
		}
		appendStep(pats[bestIdx], bestIdx, bestSeed || len(p.Steps) == 0, bestRows)
		p.EstCost += bestCost
		rows = bestRows
	}

	// FILTERs run as soon as their variables are bound. Top-level
	// conjunctions split into their conjuncts first, so each prunes at the
	// earliest step its variables allow — a FILTER (?a > 0 && ?b < 9) over
	// two otherwise-unrelated patterns must not wait for the cartesian
	// product to materialize.
	filters := SplitConjuncts(q.Filters)
	inserted := make([]bool, len(filters))
	var final []Step
	boundSoFar := map[string]bool{}
	for _, st := range p.Steps {
		final = append(final, st)
		for _, e := range []Endpoint{st.From, st.To} {
			if e.IsVar() {
				boundSoFar[e.Var] = true
			}
		}
		for fi, f := range filters {
			if inserted[fi] {
				continue
			}
			ready := true
			for _, v := range ExprVars(f) {
				if !boundSoFar[v] {
					ready = false
					break
				}
			}
			if ready {
				final = append(final, Step{Kind: Filter, Expr: f})
				inserted[fi] = true
			}
		}
	}
	p.Steps = final
	for fi, f := range filters {
		if !inserted[fi] {
			// The filter's variables bind only inside OPTIONAL groups (or
			// never); it evaluates after the optionals.
			p.PostFilters = append(p.PostFilters, f)
		}
	}

	// OPTIONAL groups compile against the required patterns' bindings and
	// execute per solution row (left join).
	if len(q.Optionals) > 0 {
		var requiredVars []string
		seen := map[string]bool{}
		for _, pat := range q.Patterns {
			for _, v := range pat.Vars() {
				if !seen[v] {
					seen[v] = true
					requiredVars = append(requiredVars, v)
				}
			}
		}
		for _, g := range q.Optionals {
			steps, never, err := CompileGroup(g.Patterns, requiredVars, enc)
			if err != nil {
				return nil, err
			}
			for _, f := range SplitConjuncts(g.Filters) {
				steps = append(steps, Step{Kind: Filter, Expr: f})
			}
			// Only the group's newly bound variables are "optional".
			var newVars []string
			for _, v := range g.Vars() {
				if !seen[v] {
					newVars = append(newVars, v)
				}
			}
			p.Optionals = append(p.Optionals, OptionalSteps{
				Steps: steps,
				Vars:  newVars,
				Never: never,
			})
		}
	}
	return p, nil
}

// compileUnion compiles each UNION branch as an independent sub-plan over a
// synthetic modifier-free query; the executor unions the branch results and
// applies DISTINCT/ORDER BY/OFFSET/LIMIT once at the top.
func compileUnion(q *sparql.Query, enc Encoder, stats StatsProvider) (*Plan, error) {
	p := &Plan{Query: q}
	for _, br := range q.Unions {
		sub := &sparql.Query{
			Text:     q.Text,
			Select:   q.Select,
			Windows:  q.Windows,
			Patterns: br.Patterns,
			Filters:  br.Filters,
		}
		bp, err := Compile(sub, enc, stats)
		if err != nil {
			return nil, err
		}
		if bp.Empty {
			continue // this branch can never match
		}
		p.Unions = append(p.Unions, bp)
		p.EstCost += bp.EstCost
	}
	if len(p.Unions) == 0 {
		p.Empty = true
	}
	return p, nil
}

// SplitConjuncts flattens top-level AND expressions into their conjuncts
// (recursively): applying each conjunct separately is equivalent to applying
// the conjunction, and enables earlier pruning.
func SplitConjuncts(filters []sparql.Expr) []sparql.Expr {
	var out []sparql.Expr
	for _, f := range filters {
		if and, ok := f.(sparql.And); ok {
			out = append(out, SplitConjuncts(and.Exprs)...)
			continue
		}
		out = append(out, f)
	}
	return out
}

// ExprVars returns the variables referenced by a FILTER expression.
func ExprVars(e sparql.Expr) []string {
	switch x := e.(type) {
	case sparql.Cmp:
		var out []string
		if x.LHS.IsVar {
			out = append(out, x.LHS.Var)
		}
		if x.RHS.IsVar {
			out = append(out, x.RHS.Var)
		}
		return out
	case sparql.And:
		var out []string
		for _, sub := range x.Exprs {
			out = append(out, ExprVars(sub)...)
		}
		return out
	case sparql.Or:
		var out []string
		for _, sub := range x.Exprs {
			out = append(out, ExprVars(sub)...)
		}
		return out
	case sparql.Not:
		return ExprVars(x.Expr)
	default:
		return nil
	}
}

// CompileGroup compiles a pattern list in textual order against a set of
// already-bound variables, returning executable steps. empty is true when a
// constant is unknown to the encoder. The composite baseline compiles each
// same-system pattern group separately — it cannot reorder across the
// system boundary, which is exactly the paper's "sub-optimal query plan"
// issue (§2.3 Issue#2).
func CompileGroup(pats []sparql.Pattern, boundVars []string, enc Encoder) (steps []Step, empty bool, err error) {
	bound := map[string]bool{}
	for _, v := range boundVars {
		bound[v] = true
	}

	for _, pat := range pats {
		if pat.P.IsVar {
			return nil, false, fmt.Errorf("plan: variable predicates are not supported (pattern %s)", pat)
		}
		pid, ok := enc.LookupPredicate(pat.P.Term.Value)
		if !ok {
			return nil, true, nil
		}
		var s, o Endpoint
		if pat.S.IsVar {
			s = Endpoint{Var: pat.S.Var}
		} else if id, ok := enc.LookupEntity(pat.S.Term); ok {
			s = Endpoint{Const: id}
		} else {
			return nil, true, nil
		}
		if pat.O.IsVar {
			o = Endpoint{Var: pat.O.Var}
		} else if id, ok := enc.LookupEntity(pat.O.Term); ok {
			o = Endpoint{Const: id}
		} else {
			return nil, true, nil
		}
		st := Step{Pid: pid, Graph: pat.Graph}
		sBound := !s.IsVar() || bound[s.Var]
		oBound := !o.IsVar() || bound[o.Var]
		seeding := !sBound && !oBound
		switch {
		case seeding && !s.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, s, o, store.Out
		case seeding && !o.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, o, s, store.In
		case seeding:
			st.Kind, st.From, st.To, st.Dir = SeedIndex, s, o, store.Out
		case sBound && oBound:
			st.Kind, st.From, st.To, st.Dir = Check, s, o, store.Out
		case sBound:
			st.Kind, st.From, st.To, st.Dir = Expand, s, o, store.Out
		default:
			st.Kind, st.From, st.To, st.Dir = Expand, o, s, store.In
		}
		steps = append(steps, st)
		if s.IsVar() {
			bound[s.Var] = true
		}
		if o.IsVar() {
			bound[o.Var] = true
		}

	}
	return steps, false, nil
}

// FixedOrder compiles a query with the patterns in their textual order,
// seeding fresh explorations whenever a pattern has no bound variable. The
// composite baselines use this to reproduce the paper's sub-optimal query
// plans (Fig. 4(b)): a split system cannot reorder across the boundary.
func FixedOrder(q *sparql.Query, enc Encoder, stats StatsProvider) (*Plan, error) {
	// Reuse Compile's machinery by compiling each pattern singly in order.
	p := &Plan{Query: q}
	bound := map[string]bool{}
	for _, pat := range q.Patterns {
		if pat.P.IsVar {
			return nil, fmt.Errorf("plan: variable predicates are not supported (pattern %s)", pat)
		}
		pid, ok := enc.LookupPredicate(pat.P.Term.Value)
		if !ok {
			p.Empty = true
			return p, nil
		}
		var s, o Endpoint
		if pat.S.IsVar {
			s = Endpoint{Var: pat.S.Var}
		} else if id, ok := enc.LookupEntity(pat.S.Term); ok {
			s = Endpoint{Const: id}
		} else {
			p.Empty = true
			return p, nil
		}
		if pat.O.IsVar {
			o = Endpoint{Var: pat.O.Var}
		} else if id, ok := enc.LookupEntity(pat.O.Term); ok {
			o = Endpoint{Const: id}
		} else {
			p.Empty = true
			return p, nil
		}
		st := Step{Pid: pid, Graph: pat.Graph}
		sBound := !s.IsVar() || bound[s.Var]
		oBound := !o.IsVar() || bound[o.Var]
		seeding := len(p.Steps) == 0 || (!sBound && !oBound)
		switch {
		case seeding && !s.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, s, o, store.Out
		case seeding && !o.IsVar():
			st.Kind, st.From, st.To, st.Dir = SeedConst, o, s, store.In
		case seeding:
			st.Kind, st.From, st.To, st.Dir = SeedIndex, s, o, store.Out
		case sBound && oBound:
			st.Kind, st.From, st.To, st.Dir = Check, s, o, store.Out
		case sBound:
			st.Kind, st.From, st.To, st.Dir = Expand, s, o, store.Out
		default:
			st.Kind, st.From, st.To, st.Dir = Expand, o, s, store.In
		}
		p.Steps = append(p.Steps, st)
		if s.IsVar() {
			bound[s.Var] = true
		}
		if o.IsVar() {
			bound[o.Var] = true
		}
	}
	for _, f := range q.Filters {
		p.Steps = append(p.Steps, Step{Kind: Filter, Expr: f})
	}
	return p, nil
}
