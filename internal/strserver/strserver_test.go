package strserver

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	if _, ok := s.Numeric(x + 1); ok {
		t.Error("an unassigned ID reported numeric")
	}
	// Past the first chunk of IDs: a chunk with no numeric literal, then one
	// whose every third ID is one, NaN and a plain literal among them.
	for i := 0; i < 2*refChunk; i++ {
		s.InternEntity(rdf.NewIRI("e" + strconv.Itoa(i)))
	}
	want := map[rdf.ID]float64{}
	var plain []rdf.ID
	for i := 0; i < refChunk; i++ {
		switch {
		case i%3 != 0:
			plain = append(plain, s.InternEntity(rdf.NewIRI("f"+strconv.Itoa(i))))
		case i == 3:
			plain = append(plain, s.InternEntity(rdf.NewLiteral("not a number")))
		default:
			want[s.InternEntity(rdf.NewIntLiteral(int64(i)))] = float64(i)
		}
	}
	nan := s.InternEntity(rdf.NewLiteral("NaN"))
	for id, v := range want {
		if got, ok := s.Numeric(id); !ok || got != v {
			t.Errorf("Numeric(%d) = %v, %v; want %v", id, got, ok, v)
		}
	}
	for _, id := range plain {
		if v, ok := s.Numeric(id); ok {
			t.Errorf("Numeric(%d) = %v for a term that is not a number", id, v)
		}
	}
	if v, ok := s.Numeric(nan); !ok || !math.IsNaN(v) {
		t.Errorf("Numeric of the literal NaN = %v, %v", v, ok)
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

// keyList is a []string as InternKeys' key function.
func keyList(keys []string) func(int) []byte {
	return func(j int) []byte { return []byte(keys[j]) }
}

// InternKeys assigns what InternEntity of each key in turn assigns: known
// keys keep their IDs, new ones get the next IDs in index order, and a key
// repeated within one call gets one ID.
func TestInternKeysMatchesInternEntityInOrder(t *testing.T) {
	terms := []rdf.Term{
		rdf.NewIRI("known"), rdf.NewIRI("new1"), rdf.NewBlank("b"), rdf.NewIRI("new1"),
		rdf.NewTypedLiteral("3.5", rdf.XSDDouble), rdf.NewLiteral("known"), rdf.NewIRI("known"), rdf.NewBlank("b"),
	}
	keys := make([]string, len(terms))
	for i, tm := range terms {
		keys[i] = tm.Key()
	}
	one, batch := New(), New()
	for _, s := range []*Server{one, batch} {
		s.InternEntity(rdf.NewLiteral("known"))
		s.InternEntity(rdf.NewIRI("known"))
	}
	want := make([]rdf.ID, len(terms))
	for i, tm := range terms {
		want[i] = one.InternEntity(tm)
	}
	got := make([]rdf.ID, len(keys))
	batch.InternKeys(got, keyList(keys))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %q: InternKeys gave %d, InternEntity %d", keys[i], got[i], want[i])
		}
	}
	if g, w := strings.Join(batch.EntityKeys(), "|"), strings.Join(one.EntityKeys(), "|"); g != w {
		t.Errorf("EntityKeys %q, want %q", g, w)
	}
	if v, ok := batch.Numeric(got[4]); !ok || v != 3.5 {
		t.Errorf("Numeric of an interned key = %v, %v", v, ok)
	}
	// All known: the same IDs again, nothing assigned.
	again := make([]rdf.ID, len(keys))
	batch.InternKeys(again, keyList(keys))
	if fmt.Sprint(again) != fmt.Sprint(got) || batch.NumEntities() != one.NumEntities() {
		t.Errorf("re-interning gave %v (was %v), %d entities", again, got, batch.NumEntities())
	}
}

// A key longer than an arena chunk, and one that fills a chunk exactly, get
// chunks of their own; the keys on either side of them stay where they were.
// Every one reads back through Entity, Lexical, EntityKeys and LookupEntity,
// and across table doublings.
func TestLongKeysRoundTrip(t *testing.T) {
	s := New()
	terms := []rdf.Term{
		rdf.NewIRI("before"),
		rdf.NewLiteral(strings.Repeat("l", 3*arenaChunk)),
		rdf.NewIRI(""), // the shortest key, one byte, right after a long one
		rdf.NewTypedLiteral(strings.Repeat("t", arenaChunk), rdf.XSDString),
		rdf.NewBlank(strings.Repeat("b", longKey-1)), // exactly longKey bytes
		rdf.NewIRI(strings.Repeat("i", longKey-2)),   // one short of longKey
		rdf.NewIRI("after"),
	}
	for i := 0; i < 5000; i++ {
		terms = append(terms, rdf.NewIRI("http://example.org/e/"+strconv.Itoa(i)))
	}
	ids := make([]rdf.ID, len(terms))
	for i, tm := range terms {
		ids[i] = s.InternEntity(tm)
	}
	keys := s.EntityKeys()
	for i, tm := range terms {
		if got, ok := s.Entity(ids[i]); !ok || got != tm {
			t.Fatalf("Entity(%d) of term %d (%d key bytes) does not read back", ids[i], i, len(tm.Key()))
		}
		if lex, ok := s.Lexical(ids[i]); !ok || lex != tm.Value {
			t.Fatalf("Lexical(%d) of term %d does not read back", ids[i], i)
		}
		if keys[ids[i]-1] != tm.Key() {
			t.Fatalf("EntityKeys()[%d] is not term %d's key", ids[i]-1, i)
		}
		if id, ok := s.LookupEntity(tm); !ok || id != ids[i] {
			t.Fatalf("LookupEntity of term %d = %d, %v; want %d", i, id, ok, ids[i])
		}
	}
}

// Body interns race InternEntity, LookupEntity and Lexical (`make race`),
// and every writer sees one ID per key: the IDs partition the keys.
func TestConcurrentInternKeys(t *testing.T) {
	s := New()
	const writers, bodies, perBody = 2, 50, 40
	var wg sync.WaitGroup
	seen := make([]map[string]rdf.ID, writers)
	for w := 0; w < writers; w++ {
		seen[w] = make(map[string]rdf.ID)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < bodies; b++ {
				keys := make([]string, perBody)
				for j := range keys {
					keys[j] = rdf.NewIRI(fmt.Sprintf("http://ex/%d", (b*perBody+j*7)%1500)).Key()
				}
				ids := make([]rdf.ID, perBody)
				s.InternKeys(ids, keyList(keys))
				for j, k := range keys {
					if prev, ok := seen[w][k]; ok && prev != ids[j] {
						t.Errorf("key %q got IDs %d and %d", k, prev, ids[j])
					}
					seen[w][k] = ids[j]
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tm := rdf.NewIRI(fmt.Sprintf("http://ex/%d", i%1500))
				if r == 0 {
					s.InternEntity(tm)
				} else if id, ok := s.LookupEntity(tm); ok {
					if lex, ok := s.Lexical(id); !ok || lex != tm.Value {
						t.Errorf("Lexical(%d) = %q, %v; want %q", id, lex, ok, tm.Value)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for k, id := range seen[0] {
		if other, ok := seen[1][k]; ok && other != id {
			t.Errorf("key %q: writer 0 got %d, writer 1 %d", k, id, other)
		}
		if got, ok := s.LookupEntity(rdf.TermFromKey(k)); !ok || got != id {
			t.Errorf("LookupEntity(%q) = %d, %v; want %d", k, got, ok, id)
		}
	}
	if n := s.NumEntities(); n < len(seen[0]) || n > 1500 {
		t.Errorf("NumEntities = %d, want %d to 1500", n, len(seen[0]))
	}
}

// lexicalsServer interns every kind of term TestLexicalMatchesEntity covers,
// a key long enough for an arena chunk of its own, and enough IRIs after it
// to cross refs chunks and roll shared arena chunks over.
func lexicalsServer(t *testing.T) *Server {
	s := New()
	for _, tm := range []rdf.Term{
		rdf.NewIRI("http://example.org/Logan"),
		rdf.NewBlank("b9"),
		rdf.NewLiteral("a plain literal"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral(`x"^^y`, rdf.XSDString),
		rdf.NewLiteral(`p"^^q`),
		rdf.NewLiteral(""),
		rdf.NewLiteral(strings.Repeat("l", arenaChunk)),
	} {
		s.InternEntity(tm)
	}
	for i := 0; s.NumEntities() < 3*refChunk+100; i++ {
		s.InternEntity(rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	rollovers := 0
	for j := 1; j < s.n; j++ {
		a, b := s.refs[(j-1)/refChunk][(j-1)%refChunk], s.refs[j/refChunk][j%refChunk]
		if a&0xffff != longKey && b&0xffff != longKey && a>>32 != b>>32 {
			rollovers++
		}
	}
	if rollovers == 0 {
		t.Fatal("no two neighbouring IDs sit on both sides of a shared arena chunk's end")
	}
	return s
}

// Lexicals is Lexical of each ID, ok bit included, for blocks of every size
// up to Block and at every offset: IDs 0 and n+1, the long key, both sides
// of every refs chunk boundary and of every arena chunk rollover. A block
// read allocates nothing, and one of more than Block IDs panics without
// holding the lock.
func TestLexicalsMatchesLexical(t *testing.T) {
	s := lexicalsServer(t)
	ids := make([]rdf.ID, 0, s.n+2)
	for id := 0; id <= s.n+1; id++ {
		ids = append(ids, rdf.ID(id))
	}
	ids = append(ids, 1<<46-1, math.MaxUint64)
	var lex [Block]string
	check := func(block []rdf.ID) {
		t.Helper()
		for j := range lex {
			lex[j] = "stale"
		}
		ok := s.Lexicals(block, lex[:])
		for j, id := range block {
			want, wantOK := s.Lexical(id)
			if got, gotOK := lex[j], ok&(1<<j) != 0; got != want || gotOK != wantOK {
				t.Fatalf("Lexicals(%v)[%d] = %q, %v; Lexical(%d) = %q, %v", block, j, got, gotOK, id, want, wantOK)
			}
		}
		if ok>>len(block) != 0 {
			t.Fatalf("Lexicals of %d IDs set mask bits past them: %#x", len(block), ok)
		}
	}
	for _, size := range []int{1, 63, Block} {
		for start := 0; start < min(size, 7); start++ {
			for i := start; i < len(ids); i += size {
				check(ids[i:min(i+size, len(ids))])
			}
		}
	}
	// 65 IDs are two reads, 64 and 1; one read of all 65 is refused.
	wide := ids[refChunk-32 : refChunk+33]
	check(wide[:Block])
	check(wide[Block:])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Lexicals of 65 IDs did not panic")
			}
		}()
		s.Lexicals(wide, make([]string, len(wide)))
	}()
	if _, ok := s.Lexical(1); !ok || s.InternEntity(rdf.NewIRI("after the panic")) == 0 {
		t.Fatal("the string server is unusable after a refused block")
	}
	if race.Enabled {
		return
	}
	block := ids[refChunk-32 : refChunk+32]
	if n := testing.AllocsPerRun(100, func() { s.Lexicals(block, lex[:]) }); n != 0 {
		t.Errorf("Lexicals of %d IDs allocates %.0f times, want 0", len(block), n)
	}
}

// Block reads race InternKeys (`make race`) while it rolls arena and refs
// chunks and doubles stripes. Keys are interned in order by one writer, so
// ID i is key i: a known ID reads back its own key, every ID at or below
// the count before the read is known, and none above the count after it.
func TestConcurrentLexicals(t *testing.T) {
	s := New()
	const n, body = 3000, 50
	values := make([]string, n)
	keys := make([]string, n)
	for i := range keys {
		values[i] = fmt.Sprintf("http://example.org/concurrent/entity/%d", i)
		keys[i] = rdf.NewIRI(values[i]).Key()
	}
	done := make(chan struct{})
	var reads atomic.Int64 // block reads finished; each body waits for one more
	go func() {
		defer close(done)
		ids := make([]rdf.ID, body)
		for b := 0; b < n; b += body {
			for reads.Load() < int64(b/body) {
				runtime.Gosched()
			}
			s.InternKeys(ids, keyList(keys[b:b+body]))
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var block [Block]rdf.ID
			var lex [Block]string
			for round := 0; ; round++ {
				select {
				case <-done:
					if round > 0 {
						return
					}
				default:
				}
				before := rdf.ID(s.NumEntities())
				for j := range block {
					// Every published ID, a few past the count, and 0.
					block[j] = rdf.ID((round*Block+j*(r+1))%(int(before)+8)) + 1
				}
				block[r] = 0
				ok := s.Lexicals(block[:], lex[:])
				reads.Add(1)
				after := rdf.ID(s.NumEntities())
				for j, id := range block {
					known := ok&(1<<j) != 0
					switch {
					case known && (id == 0 || id > after):
						t.Errorf("ID %d known with %d entities interned", id, after)
					case !known && id != 0 && id <= before:
						t.Errorf("ID %d unknown with %d entities interned", id, before)
					case known && lex[j] != values[id-1]:
						t.Errorf("ID %d reads %q, want %q", id, lex[j], values[id-1])
					}
				}
			}
		}(r)
	}
	readers.Wait()
	if s.NumEntities() != n || len(s.arena) < 2 || len(s.refs) < 2 || len(s.tabs[0].cells) == minCells {
		t.Fatalf("%d entities in %d arena chunks, %d refs chunks, stripe 0 of %d cells: want %d entities, chunks rolled and a doubled stripe",
			s.NumEntities(), len(s.arena), len(s.refs), len(s.tabs[0].cells), n)
	}
}

// BenchmarkLexicals resolves 4 096 random IDs of 400 k interned entities per
// op, one Lexical call per ID against one Lexicals call per Block of them,
// and reports ns/id. Each op takes the next 4 096 of 256 k drawn IDs, so the
// refs and keys it reads are mostly not in cache.
func BenchmarkLexicals(b *testing.B) {
	s := New()
	const n, perOp = 400_000, 1 << 12
	for i := 0; i < n; i++ {
		s.InternEntity(rdf.NewIRI(fmt.Sprintf("http://example.org/bench/entity/%d", i)))
	}
	rng := uint64(1)
	ids := make([]rdf.ID, 1<<18)
	for i := range ids {
		rng = rng*6364136223846793005 + 1442695040888963407
		ids[i] = rdf.ID(rng>>33)%n + 1
	}
	var sink int
	op := func(i int) []rdf.ID { return ids[i*perOp%len(ids):][:perOp] }
	perID := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perOp), "ns/id")
	}
	b.Run("Lexical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range op(i) {
				lex, _ := s.Lexical(id)
				sink += len(lex)
			}
		}
		perID(b)
	})
	b.Run("Lexicals", func(b *testing.B) {
		var lex [Block]string
		for i := 0; i < b.N; i++ {
			block := op(i)
			for at := 0; at < perOp; at += Block {
				s.Lexicals(block[at:at+Block], lex[:])
				sink += len(lex[0])
			}
		}
		perID(b)
	})
	_ = sink
}
