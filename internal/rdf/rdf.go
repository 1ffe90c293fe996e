// Package rdf defines the RDF data model used throughout the Wukong+S
// reproduction: terms (IRIs, literals, blank nodes), triples, and timestamped
// stream tuples, together with a line-oriented N-Triples-style codec.
//
// The model follows RDF 1.1 Concepts loosely: we keep exactly what the
// LSBench/CityBench workloads and the C-SPARQL query subset need, and we keep
// terms cheap to copy (a small struct, no interning here — interning is the
// string server's job).
package rdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ID is the numeric identifier assigned to a term by the string server.
// Wukong+S uses a 46-bit entity ID space (more than 70 trillion entities);
// predicates live in their own small space.
type ID uint64

// MaxEntityID is the largest assignable entity ID (46-bit space, §4.1).
const MaxEntityID ID = 1<<46 - 1

// TermKind discriminates the three RDF term kinds.
type TermKind uint8

const (
	// IRIKind identifies an IRI reference term.
	IRIKind TermKind = iota
	// LiteralKind identifies a literal term (plain, typed, or numeric).
	LiteralKind
	// BlankKind identifies a blank node term.
	BlankKind
)

func (k TermKind) String() string {
	switch k {
	case IRIKind:
		return "iri"
	case LiteralKind:
		return "literal"
	case BlankKind:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Value holds the IRI text, the literal lexical
// form, or the blank-node label. Datatype is the literal datatype IRI and is
// empty for plain literals, IRIs, and blank nodes.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRIKind, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: LiteralKind, Value: lex} }

// NewTypedLiteral returns a literal term with an explicit datatype IRI.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: LiteralKind, Value: lex, Datatype: datatype}
}

// NewIntLiteral returns an xsd:integer literal.
func NewIntLiteral(v int64) Term {
	return NewTypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// NewFloatLiteral returns an xsd:double literal.
func NewFloatLiteral(v float64) Term {
	return NewTypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// NewBlank returns a blank-node term with the given label.
func NewBlank(label string) Term { return Term{Kind: BlankKind, Value: label} }

// Common XSD datatype IRIs.
const (
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
)

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRIKind }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == LiteralKind }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankKind }

// Numeric returns the term's numeric value if it is a numeric literal.
func (t Term) Numeric() (float64, bool) {
	if t.Kind != LiteralKind {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Key returns a canonical string for interning the term. Two terms intern to
// the same ID iff their keys are equal. The encoding is unambiguous: the
// leading byte discriminates kind, and literal datatypes are appended after a
// separator that cannot occur in an IRI.
func (t Term) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the term's interning key to dst and returns the extended
// slice, so a lookup can build the key in a stack buffer and allocate only
// when it has to store it.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.Kind {
	case IRIKind:
		dst = append(dst, '<')
	case BlankKind:
		dst = append(dst, '_')
	default:
		dst = append(dst, '"')
	}
	dst = append(dst, t.Value...)
	if t.Kind == LiteralKind && t.Datatype != "" {
		dst = append(dst, "\"^^"...)
		dst = append(dst, t.Datatype...)
	}
	return dst
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [64]byte
	return string(AppendTerm(buf[:0], t))
}

// AppendTerm appends the term's N-Triples rendering to dst and returns the
// extended slice. A literal is quoted with exactly the five escapes the
// parser reads (\" \\ \n \r \t) and every other byte copied through, so any
// literal renders to a line that parses back to itself.
func AppendTerm(dst []byte, t Term) []byte {
	switch t.Kind {
	case IRIKind:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	case BlankKind:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	default:
		dst = appendQuoted(dst, t.Value)
		if t.Datatype != "" {
			dst = append(dst, "^^<"...)
			dst = append(dst, t.Datatype...)
			dst = append(dst, '>')
		}
		return dst
	}
}

// appendQuoted is the inverse of scanQuoted.
func appendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for {
		i := strings.IndexAny(s, "\"\\\n\r\t")
		if i < 0 {
			break
		}
		dst = append(dst, s[:i]...)
		switch s[i] {
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = append(dst, '\\', s[i])
		}
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// CheckKey reports whether key can be an interning key: TermFromKey reads
// back every key it accepts. A key that arrives from outside the process (a
// snapshot transcript) is checked here before it is interned.
func CheckKey(key string) error {
	if key == "" {
		return errors.New("rdf: empty term key")
	}
	switch key[0] {
	case '<', '_', '"':
		return nil
	}
	return fmt.Errorf("rdf: malformed term key %q", key)
}

// TermFromKey reconstructs a term from its interning key. It is the inverse
// of Term.Key and panics on a key CheckKey refuses, which can only arise from
// corruption of the string server's tables.
func TermFromKey(key string) Term {
	if err := CheckKey(key); err != nil {
		panic(err.Error())
	}
	body := key[1:]
	switch key[0] {
	case '<':
		return NewIRI(body)
	case '_':
		return NewBlank(body)
	default:
		if i := strings.LastIndex(body, "\"^^"); i >= 0 {
			return NewTypedLiteral(body[:i], body[i+3:])
		}
		return NewLiteral(body)
	}
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// T is a convenience constructor for an all-IRI triple.
func T(s, p, o string) Triple {
	return Triple{S: NewIRI(s), P: NewIRI(p), O: NewIRI(o)}
}

// String renders the triple in N-Triples syntax (without trailing dot).
func (t Triple) String() string {
	var buf [128]byte
	return string(AppendTriple(buf[:0], t))
}

// AppendTriple appends the triple's rendering (String's bytes) to dst.
func AppendTriple(dst []byte, t Triple) []byte {
	dst = AppendTerm(dst, t.S)
	dst = append(dst, ' ')
	dst = AppendTerm(dst, t.P)
	dst = append(dst, ' ')
	return AppendTerm(dst, t.O)
}

// Timestamp is a logical stream timestamp in milliseconds. The paper's
// C-SPARQL time model assumes monotonically non-decreasing timestamps within
// a stream; generators and the adaptor preserve that invariant.
type Timestamp int64

// Tuple is one element of an RDF stream: a triple plus its timestamp, e.g.
// ⟨Logan, po, T-15⟩ 0802 in the paper's Fig. 1.
type Tuple struct {
	Triple
	TS Timestamp
}

// String renders the tuple as "triple . @ts".
func (t Tuple) String() string {
	var buf [128]byte
	return string(AppendTuple(buf[:0], t))
}

// AppendTuple appends the tuple's rendering (String's bytes) to dst: the one
// renderer a client's EMIT body is built with.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = AppendTriple(dst, t.Triple)
	dst = append(dst, " . @"...)
	return strconv.AppendInt(dst, int64(t.TS), 10)
}
