package strserver

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/race"
	"repro/internal/rdf"
)

func TestInternEntityStable(t *testing.T) {
	s := New()
	a := s.InternEntity(rdf.NewIRI("http://ex/a"))
	b := s.InternEntity(rdf.NewIRI("http://ex/b"))
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if again := s.InternEntity(rdf.NewIRI("http://ex/a")); again != a {
		t.Fatalf("re-intern changed ID: %d vs %d", again, a)
	}
	if a == ReservedIndexID || b == ReservedIndexID {
		t.Fatal("assigned the reserved index ID")
	}
}

func TestEntityKindsDistinct(t *testing.T) {
	s := New()
	iri := s.InternEntity(rdf.NewIRI("x"))
	lit := s.InternEntity(rdf.NewLiteral("x"))
	blk := s.InternEntity(rdf.NewBlank("x"))
	if iri == lit || lit == blk || iri == blk {
		t.Fatalf("same-text terms of different kinds collided: %d %d %d", iri, lit, blk)
	}
}

func TestEntityRoundTrip(t *testing.T) {
	s := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://ex/a"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewLiteral("plain"),
		rdf.NewBlank("b9"),
	}
	for _, tm := range terms {
		id := s.InternEntity(tm)
		got, ok := s.Entity(id)
		if !ok || got != tm {
			t.Errorf("Entity(%d) = %v, %v; want %v", id, got, ok, tm)
		}
	}
	if _, ok := s.Entity(0); ok {
		t.Error("Entity(0) should be unknown")
	}
	if _, ok := s.Entity(999); ok {
		t.Error("Entity(999) should be unknown")
	}
}

// Lexical is Entity(id).Value read straight off the key: the same string for
// every kind of term, "" and false where Entity has no term, and no
// allocation.
func TestLexicalMatchesEntity(t *testing.T) {
	s := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/Logan"),
		rdf.NewBlank("b9"),
		rdf.NewLiteral("a plain literal"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral(`x"^^y`, rdf.XSDString),
		rdf.NewLiteral(`p"^^q`), // its key reads back as a typed literal
		rdf.NewLiteral(""),
	}
	ids := []rdf.ID{0, rdf.ID(len(terms) + 1)}
	for _, tm := range terms {
		ids = append(ids, s.InternEntity(tm))
	}
	for _, id := range ids {
		want, wantOK := s.Entity(id)
		got, ok := s.Lexical(id)
		if got != want.Value || ok != wantOK {
			t.Errorf("Lexical(%d) = %q, %v; Entity(%d).Value = %q, %v", id, got, ok, id, want.Value, wantOK)
		}
		if race.Enabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { s.Lexical(id) }); n != 0 {
			t.Errorf("Lexical(%d) allocates %.0f times, want 0", id, n)
		}
	}
}

func TestLookupEntity(t *testing.T) {
	s := New()
	if _, ok := s.LookupEntity(rdf.NewIRI("nope")); ok {
		t.Error("lookup of unseen term succeeded")
	}
	id := s.InternEntity(rdf.NewIRI("yes"))
	got, ok := s.LookupEntity(rdf.NewIRI("yes"))
	if !ok || got != id {
		t.Errorf("LookupEntity = %d, %v; want %d", got, ok, id)
	}
}

func TestMustEntityPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("MustEntity(7) did not panic")
		}
	}()
	s.MustEntity(7)
}

func TestNumericCache(t *testing.T) {
	s := New()
	n := s.InternEntity(rdf.NewIntLiteral(99))
	if v, ok := s.Numeric(n); !ok || v != 99 {
		t.Errorf("Numeric = %v, %v", v, ok)
	}
	x := s.InternEntity(rdf.NewIRI("notnum"))
	if _, ok := s.Numeric(x); ok {
		t.Error("IRI reported numeric")
	}
	if _, ok := s.Numeric(0); ok {
		t.Error("ID 0 reported numeric")
	}
}

func TestPredicates(t *testing.T) {
	s := New()
	p1, _ := s.InternPredicate("http://ex/follows")
	p2, _ := s.InternPredicate("http://ex/likes")
	if p1 == p2 {
		t.Fatal("distinct predicates share ID")
	}
	if again, err := s.InternPredicate("http://ex/follows"); again != p1 || err != nil {
		t.Fatal("re-intern changed predicate ID")
	}
	iri, ok := s.Predicate(p1)
	if !ok || iri != "http://ex/follows" {
		t.Errorf("Predicate(%d) = %q, %v", p1, iri, ok)
	}
	if _, ok := s.Predicate(0); ok {
		t.Error("Predicate(0) should be unknown")
	}
	if _, ok := s.LookupPredicate("unseen"); ok {
		t.Error("lookup of unseen predicate succeeded")
	}
}

func TestEncodeDecodeTriple(t *testing.T) {
	s := New()
	tr := rdf.Triple{
		S: rdf.NewIRI("http://ex/logan"),
		P: rdf.NewIRI("http://ex/po"),
		O: rdf.NewIRI("http://ex/t15"),
	}
	enc, err := s.EncodeTriple(tr)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.DecodeTriple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec != tr {
		t.Errorf("decode = %v, want %v", dec, tr)
	}
	if _, err := s.DecodeTriple(EncodedTriple{S: 999, P: enc.P, O: enc.O}); err == nil {
		t.Error("decode of unknown subject succeeded")
	}
	if _, err := s.DecodeTriple(EncodedTriple{S: enc.S, P: 999, O: enc.O}); err == nil {
		t.Error("decode of unknown predicate succeeded")
	}
	if _, err := s.DecodeTriple(EncodedTriple{S: enc.S, P: enc.P, O: 999}); err == nil {
		t.Error("decode of unknown object succeeded")
	}
}

func TestEncodeTuple(t *testing.T) {
	s := New()
	tu := rdf.Tuple{Triple: rdf.T("a", "p", "b"), TS: 802}
	enc, err := s.EncodeTuple(tu)
	if err != nil || enc.TS != 802 {
		t.Errorf("TS = %d, err = %v", enc.TS, err)
	}
	if enc.S == 0 || enc.P == 0 || enc.O == 0 {
		t.Errorf("zero IDs in %+v", enc)
	}
}

func TestEncodeTripleNonIRIPredicatePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("literal predicate did not panic")
		}
	}()
	s.EncodeTriple(rdf.Triple{S: rdf.NewIRI("s"), P: rdf.NewLiteral("p"), O: rdf.NewIRI("o")})
}

func TestConcurrentIntern(t *testing.T) {
	s := New()
	const workers = 8
	const terms = 500
	var wg sync.WaitGroup
	ids := make([][]rdf.ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]rdf.ID, terms)
			for i := 0; i < terms; i++ {
				ids[w][i] = s.InternEntity(rdf.NewIRI(fmt.Sprintf("http://ex/e%d", i)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < terms; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got ID %d for term %d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
	if n := s.NumEntities(); n != terms {
		t.Errorf("NumEntities = %d, want %d", n, terms)
	}
}

func TestCounts(t *testing.T) {
	s := New()
	if s.NumEntities() != 0 || s.NumPredicates() != 0 {
		t.Error("fresh server not empty")
	}
	s.InternEntity(rdf.NewIRI("a"))
	s.InternPredicate("p")
	s.InternPredicate("q")
	if s.NumEntities() != 1 || s.NumPredicates() != 2 {
		t.Errorf("counts = %d, %d", s.NumEntities(), s.NumPredicates())
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	s := New()
	before := s.MemoryBytes()
	for i := 0; i < 100; i++ {
		s.InternEntity(rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	if after := s.MemoryBytes(); after <= before {
		t.Errorf("MemoryBytes did not grow: %d -> %d", before, after)
	}
}

// Property: interning is injective — distinct terms get distinct IDs, and
// Entity inverts InternEntity.
func TestInternInjectiveProperty(t *testing.T) {
	s := New()
	seen := make(map[rdf.ID]rdf.Term)
	f := func(kind uint8, value string) bool {
		tm := rdf.Term{Kind: rdf.TermKind(kind % 3), Value: value}
		id := s.InternEntity(tm)
		if prev, ok := seen[id]; ok && prev != tm {
			return false
		}
		seen[id] = tm
		got, ok := s.Entity(id)
		return ok && got == tm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKnownTermLookupsDoNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://example.org/users/u-1234567"),
		rdf.NewLiteral("a plain literal"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewBlank("b17"),
	}
	for _, tm := range terms {
		s.InternEntity(tm)
	}
	for _, tm := range terms {
		if n := testing.AllocsPerRun(100, func() { s.InternEntity(tm) }); n != 0 {
			t.Errorf("InternEntity(%v) of a known term allocates %.0f times, want 0", tm, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := s.LookupEntity(tm); !ok {
				t.Fatal("known term not found")
			}
		}); n != 0 {
			t.Errorf("LookupEntity(%v) allocates %.0f times, want 0", tm, n)
		}
	}
	// A key longer than the stack buffer still resolves to the same ID.
	long := rdf.NewIRI(strings.Repeat("x", 4*keyBuf))
	if id := s.InternEntity(long); id != s.InternEntity(long) {
		t.Error("a long term interned twice got two IDs")
	}
	if got, ok := s.LookupEntity(long); !ok || got != s.InternEntity(long) {
		t.Error("a long term is not found by LookupEntity")
	}
}

// pointsInto reports whether s's bytes lie inside buf's.
func pointsInto(s, buf string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestInternedStringsDoNotAliasTheirSource: terms parsed out of a request
// body are substrings of it, and the tables live for the daemon's life — a
// stored string that pointed into a body would pin the whole body.
func TestInternedStringsDoNotAliasTheirSource(t *testing.T) {
	body := strings.Repeat("#", 1<<20) + "http://example.org/p/likes|http://example.org/e/alice"
	iri, ent := body[1<<20:1<<20+26], body[1<<20+27:]
	if !pointsInto(iri, body) || !pointsInto(ent, body) {
		t.Fatal("test setup: the slices do not alias the body")
	}
	s := New()
	pid, _ := s.InternPredicate(iri)
	stored, ok := s.Predicate(pid)
	if !ok || stored != iri {
		t.Fatalf("Predicate(%d) = %q, %v", pid, stored, ok)
	}
	if pointsInto(stored, body) {
		t.Error("the stored predicate IRI points into the request body")
	}
	for _, k := range s.PredicateIRIs() {
		if pointsInto(k, body) {
			t.Error("PredicateIRIs exposes a string that points into the request body")
		}
	}
	s.InternEntity(rdf.NewIRI(ent))
	for _, k := range s.EntityKeys() {
		if pointsInto(k, body) {
			t.Error("a stored entity key points into the request body")
		}
	}
}

// fillPredicates interns fresh predicates until free IDs are left.
func fillPredicates(t *testing.T, s *Server, free int) {
	t.Helper()
	base := s.NumPredicates()
	pids := make([]rdf.ID, int(MaxPredicateID)-free-base)
	if err := s.InternPredicates(pids, func(i int) string { return "fill/" + strconv.Itoa(base+i) }); err != nil {
		t.Fatal(err)
	}
}

// The predicate space ends at MaxPredicateID, the 17-bit pid of a packed
// store key. Interning past it is an error, never a panic, and a batch that
// does not fit assigns nothing.
func TestPredicateSpaceCap(t *testing.T) {
	s := New()
	fillPredicates(t, s, 2)
	names := func(iris ...string) func(int) string { return func(i int) string { return iris[i] } }

	if err := s.InternPredicates(make([]rdf.ID, 3), names("a", "b", "c")); !errors.Is(err, ErrPredicateSpace) {
		t.Fatalf("three new predicates with two IDs free: err = %v, want ErrPredicateSpace", err)
	}
	if n := s.NumPredicates(); n != int(MaxPredicateID)-2 {
		t.Fatalf("a refused batch moved NumPredicates to %d", n)
	}
	if _, ok := s.LookupPredicate("a"); ok {
		t.Fatal("a refused batch assigned its first predicate")
	}

	// A repeated IRI needs one ID, and known ones need none.
	pids := make([]rdf.ID, 4)
	if err := s.InternPredicates(pids, names("a", "fill/0", "a", "b")); err != nil {
		t.Fatalf("two new predicates with two IDs free: %v", err)
	}
	if pids[0] != pids[2] || pids[1] != 1 || pids[3] != MaxPredicateID {
		t.Fatalf("pids = %v, want a twice, fill/0 = 1 and b = MaxPredicateID", pids)
	}

	before := s.NumEntities()
	if id, err := s.InternPredicate("c"); id != 0 || !errors.Is(err, ErrPredicateSpace) {
		t.Fatalf("InternPredicate past the cap = %d, %v", id, err)
	}
	if _, err := s.EncodeTriple(rdf.T("x", "c", "y")); !errors.Is(err, ErrPredicateSpace) {
		t.Fatalf("EncodeTriple past the cap: err = %v", err)
	}
	if _, err := s.EncodeTuple(rdf.Tuple{Triple: rdf.T("x", "d", "y"), TS: 1}); !errors.Is(err, ErrPredicateSpace) {
		t.Fatalf("EncodeTuple past the cap: err = %v", err)
	}
	if s.NumEntities() != before || s.NumPredicates() != int(MaxPredicateID) {
		t.Fatalf("refused encodes interned something: %d entities (was %d), %d predicates", s.NumEntities(), before, s.NumPredicates())
	}
	if id, err := s.InternPredicate("b"); id != MaxPredicateID || err != nil {
		t.Fatalf("a known predicate at the cap = %d, %v", id, err)
	}
	if enc, err := s.EncodeTriple(rdf.T("x", "a", "y")); err != nil || enc.P != pids[0] {
		t.Fatalf("EncodeTriple with a known predicate at the cap = %+v, %v", enc, err)
	}
}
