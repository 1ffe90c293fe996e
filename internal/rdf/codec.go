package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a line-oriented codec for triples and stream tuples.
// The syntax is a pragmatic subset of N-Triples:
//
//	<http://ex/a> <http://ex/p> <http://ex/b> .
//	<http://ex/a> <http://ex/p> "12"^^<http://www.w3.org/2001/XMLSchema#integer> .
//	_:b1 <http://ex/p> "plain" .
//
// Stream tuples append a timestamp annotation after the dot:
//
//	<http://ex/a> <http://ex/p> <http://ex/b> . @802
//
// Comments start with '#'; blank lines are ignored.

// ParseTerm parses a single N-Triples term.
func ParseTerm(s string) (Term, error) {
	t, rest, err := scanTerm(s)
	if err != nil {
		return Term{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Term{}, fmt.Errorf("rdf: trailing input %q after term", rest)
	}
	return t, nil
}

// scanTerm parses one term from the front of s and returns the remainder.
func scanTerm(s string) (Term, string, error) {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	if s == "" {
		return Term{}, "", fmt.Errorf("rdf: expected term, got end of line")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("rdf: unterminated IRI in %q", s)
		}
		return NewIRI(s[1:end]), s[end+1:], nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return Term{}, "", fmt.Errorf("rdf: malformed blank node in %q", s)
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return NewBlank(s[2:end]), s[end:], nil
	case '"':
		lex, rest, err := scanQuoted(s)
		if err != nil {
			return Term{}, "", err
		}
		if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return Term{}, "", fmt.Errorf("rdf: unterminated datatype in %q", rest)
			}
			return NewTypedLiteral(lex, rest[3:end]), rest[end+1:], nil
		}
		// Language tags are accepted and discarded: the workloads are
		// monolingual and C-SPARQL matching here is language-agnostic.
		if strings.HasPrefix(rest, "@") {
			end := strings.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			rest = rest[end:]
		}
		return NewLiteral(lex), rest, nil
	default:
		return Term{}, "", fmt.Errorf("rdf: unrecognized term start %q", s)
	}
}

// scanQuoted parses a double-quoted string with backslash escapes from the
// front of s, returning the unescaped lexical form and the remainder.
func scanQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("rdf: expected quoted literal in %q", s)
	}
	// No escape before the closing quote: the lexical form is a substring.
	if end := strings.IndexAny(s[1:], "\"\\"); end >= 0 && s[1+end] == '"' {
		return s[1 : 1+end], s[2+end:], nil
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("rdf: dangling escape in %q", s)
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"', '\\':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("rdf: unsupported escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
		i++
	}
	return "", "", fmt.Errorf("rdf: unterminated literal in %q", s)
}

// ParseTriple parses one triple line (with or without the trailing dot).
func ParseTriple(line string) (Triple, error) {
	s, rest, err := scanTerm(line)
	if err != nil {
		return Triple{}, fmt.Errorf("subject: %w", err)
	}
	p, rest, err := scanTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("predicate: %w", err)
	}
	if !p.IsIRI() {
		// Encoding assumes it (strserver.EncodeTriple panics otherwise), and
		// these lines arrive from the network.
		return Triple{}, fmt.Errorf("predicate: rdf: must be an IRI, got %s", p)
	}
	o, rest, err := scanTerm(rest)
	if err != nil {
		return Triple{}, fmt.Errorf("object: %w", err)
	}
	rest = strings.TrimSpace(rest)
	if rest != "" && rest != "." {
		return Triple{}, fmt.Errorf("rdf: trailing input %q after triple", rest)
	}
	return Triple{S: s, P: p, O: o}, nil
}

// ParseTuple parses one stream tuple line: a triple optionally followed by
// ". @ts". A tuple without a timestamp annotation gets timestamp 0.
func ParseTuple(line string) (Tuple, error) {
	ts := Timestamp(0)
	if i := strings.LastIndexByte(line, '@'); i >= 0 && strings.IndexByte(line[i:], '>') < 0 && strings.IndexByte(line[i:], '"') < 0 {
		v, err := strconv.ParseInt(strings.TrimSpace(line[i+1:]), 10, 64)
		if err != nil {
			return Tuple{}, fmt.Errorf("rdf: bad timestamp: %w", err)
		}
		ts = Timestamp(v)
		line = line[:i]
	}
	tr, err := ParseTriple(line)
	if err != nil {
		return Tuple{}, err
	}
	return Tuple{Triple: tr, TS: ts}, nil
}

// Reader streams triples or tuples from line-oriented input.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader over r. Lines may be up to 1 MiB long.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &Reader{sc: sc}
}

// next returns the next non-blank, non-comment line, or io.EOF.
func (r *Reader) next() (string, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, nil
	}
	if err := r.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// ReadTriple returns the next triple, or io.EOF at end of input.
func (r *Reader) ReadTriple() (Triple, error) {
	line, err := r.next()
	if err != nil {
		return Triple{}, err
	}
	t, err := ParseTriple(line)
	if err != nil {
		return Triple{}, fmt.Errorf("line %d: %w", r.line, err)
	}
	return t, nil
}

// ReadTuple returns the next stream tuple, or io.EOF at end of input.
func (r *Reader) ReadTuple() (Tuple, error) {
	line, err := r.next()
	if err != nil {
		return Tuple{}, err
	}
	t, err := ParseTuple(line)
	if err != nil {
		return Tuple{}, fmt.Errorf("line %d: %w", r.line, err)
	}
	return t, nil
}

// maxLineBytes is the longest line the codec accepts, whichever way the
// input arrives: NewReader's scanner and the in-memory parsers refuse a line
// of this many bytes or more with bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// ParseTriples parses a whole in-memory body of triple lines. Blank and '#'
// lines are skipped, a bad line fails the body with a "line N: " error, and
// a line of 1 MiB or more with bufio.ErrTooLong — what a Reader over the same
// bytes returns. Every Term.Value of the result is a substring of body
// (escaped literals excepted): a caller that keeps one past the body's life
// must strings.Clone it.
func ParseTriples(body string) ([]Triple, error) {
	return appendLines(nil, body, ParseTriple)
}

// ParseTuples is ParseTriples for stream tuple lines.
func ParseTuples(body string) ([]Tuple, error) {
	return appendLines(nil, body, ParseTuple)
}

// appendLines parses every line of body into dst, which it sizes from the
// newline count when dst has no room, so the result is allocated once.
func appendLines[T any](dst []T, body string, parse func(string) (T, error)) ([]T, error) {
	if n := strings.Count(body, "\n") + 1; cap(dst) < n && body != "" {
		dst = make([]T, 0, n)
	}
	err := eachLine(body, func(text string) error {
		t, err := parse(text)
		if err != nil {
			return err
		}
		dst = append(dst, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// eachLine is the one loop that splits a body into lines: it cuts at each
// '\n' without copying and calls f with every line that is not blank or a
// '#' comment, trimmed. A line of maxLineBytes or more stops it with
// bufio.ErrTooLong, and an error from f with "line N: " and that error.
func eachLine(body string, f func(text string) error) error {
	for line := 1; body != ""; line++ {
		var text string
		if i := strings.IndexByte(body, '\n'); i >= 0 {
			text, body = body[:i], body[i+1:]
		} else {
			text, body = body, ""
		}
		if len(text) >= maxLineBytes {
			return bufio.ErrTooLong
		}
		text = strings.TrimSpace(text)
		if text == "" || text[0] == '#' {
			continue
		}
		if err := f(text); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return nil
}

// TupleKeys is a body of stream tuple lines cut for interning, each line
// parsed by ParseTuple and kept as no Tuple: per tuple, its subject's and
// object's interning keys (Term.AppendKey's bytes), its predicate IRI and its
// timestamp. Entity key j is tuple j/2's subject when j is even and its
// object when j is odd, the order in which interning them one tuple at a
// time would meet them. Scan reuses every buffer, so a TupleKeys that scans
// body after body allocates only while its buffers grow.
type TupleKeys struct {
	keys  []byte      // every entity key, back to back
	ends  []int       // ends[j] is where entity key j ends in keys
	preds []string    // predicate IRIs: substrings of the scanned body
	ts    []Timestamp // timestamps, one per tuple
}

// Scan replaces k's contents with body's tuples. It accepts and refuses
// exactly what ParseTuples does, with the same error; on error k is empty.
// The predicate IRIs are substrings of body: a caller that keeps k past the
// body's life calls Reset first.
func (k *TupleKeys) Scan(body string) error {
	k.Reset()
	err := eachLine(body, func(text string) error {
		t, err := ParseTuple(text)
		if err != nil {
			return err
		}
		k.keys = t.S.AppendKey(k.keys)
		k.ends = append(k.ends, len(k.keys))
		k.keys = t.O.AppendKey(k.keys)
		k.ends = append(k.ends, len(k.keys))
		k.preds = append(k.preds, t.P.Value)
		k.ts = append(k.ts, t.TS)
		return nil
	})
	if err != nil {
		k.Reset()
	}
	return err
}

// Reset empties k and drops its references into the last scanned body; it
// keeps the buffers.
func (k *TupleKeys) Reset() {
	clear(k.preds)
	k.keys, k.ends, k.preds, k.ts = k.keys[:0], k.ends[:0], k.preds[:0], k.ts[:0]
}

// Len returns the number of tuples.
func (k *TupleKeys) Len() int { return len(k.ts) }

// Pred returns tuple i's predicate IRI.
func (k *TupleKeys) Pred(i int) string { return k.preds[i] }

// TS returns tuple i's timestamp.
func (k *TupleKeys) TS(i int) Timestamp { return k.ts[i] }

// Key returns entity key j (2·Len() of them). It aliases k's buffer, so it
// is valid until the next Scan or Reset.
func (k *TupleKeys) Key(j int) []byte {
	start := 0
	if j > 0 {
		start = k.ends[j-1]
	}
	return k.keys[start:k.ends[j]:k.ends[j]]
}

// CountTuples returns how many tuples body holds, refusing what ParseTuples
// refuses with the same error, and keeps nothing it parses.
func CountTuples(body string) (int, error) {
	n := 0
	err := eachLine(body, func(text string) error {
		n++
		_, err := ParseTuple(text)
		return err
	})
	return n, err
}

// ReadAllTriples consumes the remaining input and returns all triples.
func ReadAllTriples(r io.Reader) ([]Triple, error) { return readAll(r, ParseTriples) }

// ReadAllTuples consumes the remaining input and returns all stream tuples.
func ReadAllTuples(r io.Reader) ([]Tuple, error) { return readAll(r, ParseTuples) }

func readAll[T any](r io.Reader, parse func(string) ([]T, error)) ([]T, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parse(string(b))
}

// WriteTriples writes triples in N-Triples syntax, one per line.
func WriteTriples(w io.Writer, triples []Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if _, err := fmt.Fprintf(bw, "%s .\n", t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTuples writes stream tuples, one per line, with timestamp annotations.
func WriteTuples(w io.Writer, tuples []Tuple) error {
	bw := bufio.NewWriter(w)
	for _, t := range tuples {
		if _, err := fmt.Fprintf(bw, "%s\n", t); err != nil {
			return err
		}
	}
	return bw.Flush()
}
