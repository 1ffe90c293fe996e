package rdf

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/race"
)

// readAllViaReader is ReadAllTuples as it was before ParseTuples existed: a
// Reader (bufio.Scanner, one copied line at a time) drained to EOF. It is the
// reference the in-memory parser must agree with, tuples and error text.
func readAllViaReader(body string) ([]Tuple, error) {
	rd := NewReader(strings.NewReader(body))
	var out []Tuple
	for {
		t, err := rd.ReadTuple()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestParseTuplesMatchesReader(t *testing.T) {
	// "<"+long+"> <p> <o> . @1" is the longest line accepted: one byte short
	// of maxLineBytes.
	long := strings.Repeat("x", maxLineBytes-1-len("<> <p> <o> . @1"))
	cases := map[string]string{
		"empty":               "",
		"one line":            "<a> <p> <b> . @10",
		"final newline":       "<a> <p> <b> . @10\n<c> <p> <d> . @11\n",
		"no final newline":    "<a> <p> <b> . @10\n<c> <p> <d> . @11",
		"crlf":                "<a> <p> <b> . @10\r\n<c> <p> <d> . @11\r\n",
		"blank and comments":  "\n# header\n<a> <p> <b> . @10\n   \n\t# indented comment\n<c> <p> <d> .\n\n",
		"only blanks":         "\n\n  \n#x\n",
		"literals":            `<a> <p> "plain" . @1` + "\n" + `<a> <p> "12"^^<http://www.w3.org/2001/XMLSchema#integer> . @2` + "\n" + `_:b1 <p> "tagged"@en . @3`,
		"literal with at":     `<a> <mail> "x@example.org" . @7`,
		"literal with gt":     `<a> <p> "a>b" . @7`,
		"literal with escape": `<a> <p> "line\nbreak \"q\" back\\slash\ttab" . @7`,
		"no timestamp":        "<a> <p> <b> .\n<a> <p> <c>",
		"bad line in middle":  "<a> <p> <b> . @1\n\n<a> <p> . @2\n<a> <p> <c> . @3",
		"bad first line":      "nonsense",
		"bad timestamp":       "<a> <p> <b> . @1\n<a> <p> <b> . @x1",
		"literal predicate":   `<a> "p" <b> . @1`,
		"unterminated":        "<a> <p> \"open . @1\n<a> <p> <b> . @2",
		"bad escape":          `<a> <p> "\q" . @1`,
		"longest line":        "<a> <p> <b> . @1\n<" + long + "> <p> <o> . @1",
		"longest line + lf":   "<" + long + "> <p> <o> . @1\n<a> <p> <b> . @2",
		"line too long":       "<a> <p> <b> . @1\n<" + long + "x> <p> <o> . @1\n<a> <p> <b> . @2",
		"too long after bad":  "<a> <p> . @1\n<" + long + "x> <p> <o> . @1",
		"too long then cr lf": "<" + long + "> <p> <o> . @1\r\n",
	}
	for name, body := range cases {
		want, wantErr := readAllViaReader(body)
		got, gotErr := ParseTuples(body)
		if errText(gotErr) != errText(wantErr) {
			t.Errorf("%s: error %q, the Reader path says %q", name, errText(gotErr), errText(wantErr))
			continue
		}
		if !sameTuples(got, want) {
			t.Errorf("%s: tuples differ:\n got %v\nwant %v", name, got, want)
		}
		viaReadAll, readAllErr := ReadAllTuples(strings.NewReader(body))
		if errText(readAllErr) != errText(wantErr) || !sameTuples(viaReadAll, want) {
			t.Errorf("%s: ReadAllTuples = %v, %q; the Reader path says %v, %q",
				name, viaReadAll, errText(readAllErr), want, errText(wantErr))
		}
	}
	if _, err := ParseTuples("<a> <p> <b> . @1\n<" + long + "x> <p> <o> . @1"); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a 1 MiB line fails with %v, want bufio.ErrTooLong", err)
	}
	if got, err := ParseTuples("<" + long + "> <p> <o> . @1\n"); err != nil || len(got) != 1 {
		t.Errorf("a line one byte under 1 MiB: %d tuples, %v; want it parsed", len(got), err)
	}
}

func TestParseTriplesMatchesReader(t *testing.T) {
	for _, body := range []string{
		"<a> <p> <b> .\n# c\n\n<a> <p> \"lit\" .\r\n_:x <p> <b>",
		"<a> <p> <b> .\n<a> <p>\n",
		"<a> <p> <b> . @5", // a tuple annotation is trailing input for a triple
	} {
		rd := NewReader(strings.NewReader(body))
		var want []Triple
		var wantErr error
		for {
			tr, err := rd.ReadTriple()
			if err == io.EOF {
				break
			}
			if err != nil {
				want, wantErr = nil, err
				break
			}
			want = append(want, tr)
		}
		got, gotErr := ParseTriples(body)
		if errText(gotErr) != errText(wantErr) || len(got) != len(want) {
			t.Fatalf("%q: got %v, %q; the Reader path says %v, %q", body, got, errText(gotErr), want, errText(wantErr))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q: triple %d = %v, want %v", body, i, got[i], want[i])
			}
		}
	}
}

func emitBody(lines int) string {
	var b strings.Builder
	for i := 0; i < lines; i++ {
		b.WriteString(Tuple{Triple: T("user"+strings.Repeat("7", i%5), "po", "post-1234"), TS: Timestamp(100 + i)}.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestParseTuplesAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	body := emitBody(64)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseTuples(body); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ParseTuples of a 64-line body allocates %.0f times, want ≤ 2", n)
	}
	var keys TupleKeys
	if n := testing.AllocsPerRun(100, func() {
		if err := keys.Scan(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("TupleKeys.Scan into reused buffers allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if n, err := CountTuples(body); n != 64 || err != nil {
			t.Fatal(n, err)
		}
	}); n != 0 {
		t.Errorf("CountTuples allocates %.0f times, want 0", n)
	}
}

// FuzzTupleRoundTrip: whatever the renderer writes parses back to the tuple it
// rendered, alone and as a line of a body — for a literal of any bytes, and for
// any IRI or blank-node value the line syntax can carry.
func FuzzTupleRoundTrip(f *testing.F) {
	f.Add(uint8(0), "s", "p", "o", "", int64(802))
	f.Add(uint8(4), "b1", "p", "x@y>z", "", int64(-1))
	f.Add(uint8(7), "a\x01b", "http://ex/p", " \"\\\n\r\t\xff", XSDInteger, int64(0))
	f.Fuzz(func(t *testing.T, kinds uint8, s, p, o, dt string, ts int64) {
		term := func(kind uint8, v string) (Term, bool) {
			switch TermKind(kind % 3) {
			case IRIKind:
				return NewIRI(v), !strings.ContainsAny(v, ">\n")
			case BlankKind:
				return NewBlank(v), !strings.ContainsAny(v, " \t\n")
			default:
				return NewTypedLiteral(v, dt), !strings.ContainsAny(dt, ">\n")
			}
		}
		sub, okS := term(kinds, s)
		obj, okO := term(kinds/3, o)
		if !okS || !okO || strings.ContainsAny(p, ">\n") {
			return
		}
		want := Tuple{Triple: Triple{S: sub, P: NewIRI(p), O: obj}, TS: Timestamp(ts)}
		line := string(AppendTuple(nil, want))
		if line != want.String() {
			t.Fatalf("AppendTuple %q, String %q", line, want.String())
		}
		got, err := ParseTuple(line)
		if err != nil || got != want {
			t.Fatalf("ParseTuple(%q) = %v, %v; want %v", line, got, err, want)
		}
		if all, err := ParseTuples(line + "\n" + line + "\n"); err != nil || len(all) != 2 || all[1] != want {
			t.Fatalf("ParseTuples of two %q lines = %v, %v", line, all, err)
		}
	})
}

// FuzzParseTuples: the in-memory parser never panics and agrees with the
// Reader path on every input — the bytes of an EMIT body cross a trust
// boundary.
func FuzzParseTuples(f *testing.F) {
	f.Add("<a> <p> <b> . @10\n<c> <p> \"l\\n\" . @11\r\n# c\n")
	f.Add("<a> <p> . @1\n")
	f.Add("_:b <p> \"x\"^^<t> .")
	f.Add("<a> <p> \"x@y>z\" . @3")
	f.Fuzz(func(t *testing.T, body string) {
		got, gotErr := ParseTuples(body)
		want, wantErr := readAllViaReader(body)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("error %q, the Reader path says %q", errText(gotErr), errText(wantErr))
		}
		if !sameTuples(got, want) {
			t.Fatalf("tuples differ: got %v, want %v", got, want)
		}
	})
}

// FuzzTupleKeys: the key scanner EMIT interns from agrees with ParseTuples
// followed by Term.AppendKey on every body — the same keys, predicate IRIs
// and timestamps, or the same refusal with the same error (so on the same
// line) — and CountTuples counts what ParseTuples parses. Each body is
// scanned into buffers a longer body filled first.
func FuzzTupleKeys(f *testing.F) {
	f.Add("<a> <p> <b> . @10\n<c> <p> \"l\\n\\t\\r\\\"\\\\x\" . @11\r\n# c\n")
	f.Add("<a> <p> \"12\"^^<" + XSDInteger + "> . @1\n<a> <p> \"x\"^^<> . @2\n<a> <p> \"hi\"@en . @3\n")
	f.Add("<a> <p> \"hi\"@en .\n")
	f.Add("_:b1 <p> _:b2 . @5\n_:b1<p> <o> . @6\n_: <p> <o>\n")
	f.Add("<a@b> <p> <c@d> . @7\n<a> <p> \"x@y>z\" . @8\n<a> <p> _:b@9\n<a> <p> \"@\" . @ 10 \n")
	f.Add("# only a comment\r\n\r\n  \t\n<a> <p> <b> .\r\n<a> <p> <b> . @-3\r\n")
	f.Add("<a> <p> <b> <c> . @1\n<a> <p> <b> .. @2\n")
	f.Add("<a> <p> <b> . @x\n<a> \"p\" <b> . @1\n<a> <p> \"\\q\" . @1\n<a> <p> \"open . @1\n<a> <p>\n")
	f.Add("<" + strings.Repeat("x", maxLineBytes) + "> <p> <o> . @1\n")
	f.Add("<" + strings.Repeat("y", maxLineBytes-len("<> <p> <o> . @1")-1) + "> <p> <o> . @1\n")
	var keys TupleKeys
	f.Fuzz(func(t *testing.T, body string) {
		if err := keys.Scan("<longer-subject> <p> \"a longer object\" . @0\n_:s <q> <o> . @1\n_:s <q> <o> . @2\n"); err != nil {
			t.Fatal(err)
		}
		want, wantErr := ParseTuples(body)
		gotErr := keys.Scan(body)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Scan error %q, ParseTuples says %q", errText(gotErr), errText(wantErr))
		}
		n, countErr := CountTuples(body)
		if errText(countErr) != errText(wantErr) || (wantErr == nil && n != len(want)) {
			t.Fatalf("CountTuples = %d, %q; ParseTuples parsed %d, %q", n, errText(countErr), len(want), errText(wantErr))
		}
		if keys.Len() != len(want) {
			t.Fatalf("Scan cut %d tuples, ParseTuples %d", keys.Len(), len(want))
		}
		for i, tu := range want {
			s, o := tu.S.AppendKey(nil), tu.O.AppendKey(nil)
			if string(keys.Key(2*i)) != string(s) || string(keys.Key(2*i+1)) != string(o) ||
				keys.Pred(i) != tu.P.Value || keys.TS(i) != tu.TS {
				t.Fatalf("tuple %d: Scan has %q %q %q @%d; ParseTuples has %q %q %q @%d", i,
					keys.Key(2*i), keys.Pred(i), keys.Key(2*i+1), keys.TS(i), s, tu.P.Value, o, tu.TS)
			}
		}
	})
}
