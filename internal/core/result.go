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

// AppendRows renders every row in order as the wire and Strings render it —
// prefix, then each cell's lexical value, cells separated by one space, an
// unbound cell empty — appending to dst and handing the slice to endRow after
// each row, whose result it goes on appending to. It returns the last slice
// endRow gave back. Entity values are resolved a block of strserver.Block
// cells at a time, in one string-server read, and copied straight out of its
// keys; predicate values come out of its predicate table and aggregates are
// formatted in place (the bytes of rdf.NewFloatLiteral's Value), so
// rendering into a buffer with room allocates nothing.
func (r *Result) AppendRows(dst, prefix []byte, endRow func(dst []byte) []byte) []byte {
	var (
		lex  [strserver.Block]string
		ok   uint64
		k, m int // the next cell of the block, and its cell count
	)
	for i, n := 0, r.set.Len(); i < n; i++ {
		dst = append(dst, prefix...)
		for j := range r.set.Vars {
			if k == m {
				ok, m = r.resolve(&lex, i, j)
				k = 0
			}
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
				if pid, isPred := exec.UntagPred(v.ID); isPred {
					if iri, found := r.ss.Predicate(pid); found {
						dst = append(dst, iri...)
						break
					}
				}
				if ok&(1<<k) != 0 {
					dst = append(dst, lex[k]...)
				} else {
					dst = strconv.AppendUint(append(dst, "unknown-id-"...), uint64(v.ID), 10)
				}
			}
			k++
		}
		dst = endRow(dst)
	}
	return dst
}

// resolve reads the lexical forms of the block of up to strserver.Block
// cells that starts at row i, column j into lex, and returns which of them
// the string server knows and how many cells the block holds. A number cell
// asks for ID 0, which it never knows.
func (r *Result) resolve(lex *[strserver.Block]string, i, j int) (ok uint64, m int) {
	var ids [strserver.Block]rdf.ID
	w := len(r.set.Vars)
	m = min(strserver.Block, (r.set.Len()-i)*w-j)
	for c := range m {
		if v := r.set.Cell(i, j); !v.IsNum {
			ids[c] = v.ID
		}
		if j++; j == w {
			i, j = i+1, 0
		}
	}
	return r.ss.Lexicals(ids[:m], lex[:m]), m
}

// Strings decodes all rows to human-readable strings (tests and examples).
func (r *Result) Strings() []string {
	out := make([]string, 0, r.Len())
	r.AppendRows(nil, nil, func(row []byte) []byte {
		out = append(out, string(row))
		return row[:0]
	})
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
