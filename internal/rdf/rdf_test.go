package rdf

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		term Term
		kind TermKind
		want string
	}{
		{NewIRI("http://ex/a"), IRIKind, "<http://ex/a>"},
		{NewLiteral("hello"), LiteralKind, `"hello"`},
		{NewTypedLiteral("12", XSDInteger), LiteralKind, `"12"^^<` + XSDInteger + ">"},
		{NewBlank("b0"), BlankKind, "_:b0"},
		{NewIntLiteral(-7), LiteralKind, `"-7"^^<` + XSDInteger + ">"},
	}
	for _, c := range cases {
		if c.term.Kind != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.term, c.term.Kind, c.kind)
		}
		if got := c.term.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTermPredicates(t *testing.T) {
	if !NewIRI("x").IsIRI() || NewIRI("x").IsLiteral() || NewIRI("x").IsBlank() {
		t.Error("IRI predicates wrong")
	}
	if !NewLiteral("x").IsLiteral() {
		t.Error("literal predicate wrong")
	}
	if !NewBlank("x").IsBlank() {
		t.Error("blank predicate wrong")
	}
}

func TestNumeric(t *testing.T) {
	if v, ok := NewIntLiteral(42).Numeric(); !ok || v != 42 {
		t.Errorf("Numeric(42) = %v, %v", v, ok)
	}
	if v, ok := NewFloatLiteral(2.5).Numeric(); !ok || v != 2.5 {
		t.Errorf("Numeric(2.5) = %v, %v", v, ok)
	}
	if _, ok := NewLiteral("abc").Numeric(); ok {
		t.Error("non-numeric literal reported numeric")
	}
	if _, ok := NewIRI("12").Numeric(); ok {
		t.Error("IRI reported numeric")
	}
}

func TestTermKeyRoundTrip(t *testing.T) {
	terms := []Term{
		NewIRI("http://ex/a"),
		NewLiteral("plain text"),
		NewTypedLiteral("3.14", XSDDouble),
		NewBlank("node7"),
		NewLiteral(`tricky "quotes" and ^^ arrows`),
	}
	for _, tm := range terms {
		got := TermFromKey(tm.Key())
		if got != tm {
			t.Errorf("TermFromKey(Key(%v)) = %v", tm, got)
		}
	}
}

func TestTermKeyUnique(t *testing.T) {
	// An IRI and a literal with the same text must intern differently.
	a := NewIRI("x").Key()
	b := NewLiteral("x").Key()
	c := NewBlank("x").Key()
	if a == b || b == c || a == c {
		t.Errorf("keys collide: %q %q %q", a, b, c)
	}
}

func TestTermKindString(t *testing.T) {
	if IRIKind.String() != "iri" || LiteralKind.String() != "literal" || BlankKind.String() != "blank" {
		t.Error("TermKind.String wrong")
	}
	if got := TermKind(9).String(); got != "TermKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseTriple(t *testing.T) {
	tr, err := ParseTriple(`<http://ex/s> <http://ex/p> "v"^^<` + XSDInteger + `> .`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.S.Value != "http://ex/s" || tr.P.Value != "http://ex/p" {
		t.Errorf("parsed %v", tr)
	}
	if tr.O != NewTypedLiteral("v", XSDInteger) {
		t.Errorf("object = %v", tr.O)
	}
}

func TestParseTripleBlankAndPlain(t *testing.T) {
	tr, err := ParseTriple(`_:b1 <http://ex/p> "hello world"`)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.S.IsBlank() || tr.S.Value != "b1" {
		t.Errorf("subject = %v", tr.S)
	}
	if tr.O != NewLiteral("hello world") {
		t.Errorf("object = %v", tr.O)
	}
}

func TestParseTripleLangTag(t *testing.T) {
	tr, err := ParseTriple(`<s> <p> "bonjour"@fr .`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.O != NewLiteral("bonjour") {
		t.Errorf("object = %v", tr.O)
	}
}

func TestParseTripleErrors(t *testing.T) {
	bad := []string{
		"",
		"<s> <p>",
		"<s <p> <o> .",
		`<s> <p> "unterminated`,
		`<s> <p> "v"^^<unterminated`,
		"<s> <p> <o> junk",
		`<s> <p> "bad\q" .`,
		"_x <p> <o> .",
		"junk <p> <o> .",
	}
	for _, line := range bad {
		if _, err := ParseTriple(line); err == nil {
			t.Errorf("ParseTriple(%q) succeeded, want error", line)
		}
	}
}

func TestParseTuple(t *testing.T) {
	tu, err := ParseTuple(`<s> <p> <o> . @802`)
	if err != nil {
		t.Fatal(err)
	}
	if tu.TS != 802 {
		t.Errorf("TS = %d", tu.TS)
	}
	tu, err = ParseTuple(`<s> <p> <o> .`)
	if err != nil {
		t.Fatal(err)
	}
	if tu.TS != 0 {
		t.Errorf("TS = %d, want 0", tu.TS)
	}
}

func TestParseTupleAtInsideTerm(t *testing.T) {
	// An '@' inside a literal or IRI must not be mistaken for a timestamp.
	tu, err := ParseTuple(`<s> <p> "user@host" . @5`)
	if err != nil {
		t.Fatal(err)
	}
	if tu.TS != 5 || tu.O != NewLiteral("user@host") {
		t.Errorf("parsed %v", tu)
	}
}

func TestParseTupleBadTimestamp(t *testing.T) {
	if _, err := ParseTuple(`<s> <p> <o> . @zz`); err == nil {
		t.Error("want error for bad timestamp")
	}
}

func TestReaderRoundTrip(t *testing.T) {
	triples := []Triple{
		T("http://ex/a", "http://ex/p", "http://ex/b"),
		{S: NewIRI("s"), P: NewIRI("p"), O: NewTypedLiteral("9", XSDInteger)},
		{S: NewBlank("n"), P: NewIRI("p"), O: NewLiteral("x y z")},
	}
	var buf bytes.Buffer
	if err := WriteTriples(&buf, triples); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllTriples(strings.NewReader(buf.String() + "\n# comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(triples) {
		t.Fatalf("got %d triples, want %d", len(got), len(triples))
	}
	for i := range got {
		if got[i] != triples[i] {
			t.Errorf("triple %d = %v, want %v", i, got[i], triples[i])
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{Triple: T("a", "p", "b"), TS: 802},
		{Triple: Triple{S: NewIRI("s"), P: NewIRI("ga"), O: NewLiteral("[31,121]")}, TS: 808},
	}
	var buf bytes.Buffer
	if err := WriteTuples(&buf, tuples); err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&buf)
	for i := range tuples {
		got, err := rd.ReadTuple()
		if err != nil {
			t.Fatal(err)
		}
		if got != tuples[i] {
			t.Errorf("tuple %d = %v, want %v", i, got, tuples[i])
		}
	}
	if _, err := rd.ReadTuple(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestReaderErrorLine(t *testing.T) {
	rd := NewReader(strings.NewReader("<a> <p> <b> .\nbad line\n"))
	if _, err := rd.ReadTriple(); err != nil {
		t.Fatal(err)
	}
	_, err := rd.ReadTriple()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

// Property: Key is injective over generated terms and round-trips.
func TestTermKeyProperty(t *testing.T) {
	f := func(kind uint8, value, dt string) bool {
		tm := Term{Kind: TermKind(kind % 3), Value: value}
		if tm.Kind == LiteralKind {
			// "\"^^" inside the datatype would be ambiguous; datatypes are
			// IRIs, which cannot contain quotes, so strip them.
			tm.Datatype = strings.ReplaceAll(dt, `"`, "")
		}
		// Values containing the literal separator sequence cannot appear in
		// RDF IRIs; for literals the separator search is from the right and
		// requires a well-formed datatype, so restrict to parseable values.
		if tm.Kind == LiteralKind && strings.Contains(tm.Value, `"^^`) {
			return true
		}
		return TermFromKey(tm.Key()) == tm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: triple serialization round-trips for IRI/typed-literal terms.
func TestTripleCodecProperty(t *testing.T) {
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 0x20 || r == '<' || r == '>' || r == '"' || r == '\\' || r > 0x7e {
				return -1
			}
			return r
		}, s)
		if s == "" {
			return "x"
		}
		return s
	}
	f := func(s, p, o string, n int64) bool {
		tr := Triple{S: NewIRI(clean(s)), P: NewIRI(clean(p)), O: NewIntLiteral(n)}
		_ = clean(o)
		got, err := ParseTriple(tr.String() + " .")
		return err == nil && got == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFloatLiteralPrecision(t *testing.T) {
	for _, v := range []float64{0, 1, -1.5, math.Pi, 1e300, -1e-300} {
		got, ok := NewFloatLiteral(v).Numeric()
		if !ok || got != v {
			t.Errorf("float round trip %v -> %v (%v)", v, got, ok)
		}
	}
}

func TestEscapedLiteralRoundTrip(t *testing.T) {
	// Control bytes, non-printable runes and invalid UTF-8 are copied
	// through: the parser reads only the five escapes the renderer writes.
	for _, lex := range []string{"a\"b\\c\nd\te\rf", "a\x01b", " ", "\x00\a\b\f\v\x7f", "\xff\xfe", "é ✓"} {
		tr := Triple{S: NewIRI("s"), P: NewIRI("p"), O: NewLiteral(lex)}
		got, err := ParseTriple(tr.String())
		if err != nil {
			t.Errorf("%q: %v", lex, err)
			continue
		}
		if got != tr {
			t.Errorf("round trip = %v, want %v", got, tr)
		}
	}
}

// Property: on a string whose only escapes are the five the parser reads, a
// literal renders exactly as strconv.Quote does — the bytes String wrote
// before it had its own quoting.
func TestLiteralQuotingMatchesStrconv(t *testing.T) {
	f := func(s string) bool {
		s = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' || r == '\t' || strconv.IsPrint(r) {
				return r
			}
			return -1
		}, s) + `"\`
		return NewLiteral(s).String() == strconv.Quote(s) &&
			NewTypedLiteral(s, XSDString).String() == strconv.Quote(s)+"^^<"+XSDString+">"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
