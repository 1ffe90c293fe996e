package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// Result is a decoded query result. Rows decode lazily: the raw result set
// holds IDs, and terms materialize only when asked for — continuous queries
// at millions of executions per second must not pay string costs for results
// nobody reads.
type Result struct {
	set *exec.ResultSet
	ss  *strserver.Server

	// Latency is the end-to-end execution time (one-shot queries).
	Latency time.Duration
	// Trace is the per-step execution record (one-shot queries).
	Trace *exec.Trace
}

// Vars returns the projected variable names.
func (r *Result) Vars() []string { return r.set.Vars }

// Len returns the number of rows.
func (r *Result) Len() int { return r.set.Len() }

// Raw returns the undecoded result set.
func (r *Result) Raw() *exec.ResultSet { return r.set }

// Sort orders rows deterministically (useful before comparing results).
func (r *Result) Sort() { r.set.Sort() }

// Row decodes row i into RDF terms. Aggregate cells decode to xsd:double
// literals.
func (r *Result) Row(i int) []rdf.Term {
	out := make([]rdf.Term, len(r.set.Vars))
	for j := range out {
		v := r.set.Cell(i, j)
		if v.IsNum {
			out[j] = rdf.NewFloatLiteral(v.Num)
			continue
		}
		if v.ID == 0 {
			// An OPTIONAL group left the variable unbound: SPARQL renders
			// unbound cells empty.
			out[j] = rdf.NewLiteral("")
			continue
		}
		if pid, ok := exec.UntagPred(v.ID); ok {
			if iri, ok := r.ss.Predicate(pid); ok {
				out[j] = rdf.NewIRI(iri)
				continue
			}
		}
		t, ok := r.ss.Entity(v.ID)
		if !ok {
			t = rdf.NewLiteral(fmt.Sprintf("unknown-id-%d", v.ID))
		}
		out[j] = t
	}
	return out
}

// AppendRow appends row i to dst as the wire and Strings render it — each
// cell's lexical value, cells separated by one space, an unbound cell empty —
// and returns the extended slice. Entity and predicate values are copied
// straight out of the string server's keys and aggregates are formatted in
// place (the bytes of rdf.NewFloatLiteral's Value), so rendering into a
// buffer with room allocates nothing.
func (r *Result) AppendRow(dst []byte, i int) []byte {
	for j := range r.set.Vars {
		v := r.set.Cell(i, j)
		if j > 0 {
			dst = append(dst, ' ')
		}
		switch {
		case v.IsNum:
			dst = strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
		case v.ID == 0:
			// An OPTIONAL group left the variable unbound.
		default:
			if pid, ok := exec.UntagPred(v.ID); ok {
				if iri, ok := r.ss.Predicate(pid); ok {
					dst = append(dst, iri...)
					continue
				}
			}
			if lex, ok := r.ss.Lexical(v.ID); ok {
				dst = append(dst, lex...)
			} else {
				dst = strconv.AppendUint(append(dst, "unknown-id-"...), uint64(v.ID), 10)
			}
		}
	}
	return dst
}

// Strings decodes all rows to human-readable strings (tests and examples).
func (r *Result) Strings() []string {
	out := make([]string, r.Len())
	var row []byte
	for i := range out {
		row = r.AppendRow(row[:0], i)
		out[i] = string(row)
	}
	return out
}

func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(r.set.Vars, " "))
	for _, s := range r.Strings() {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}
