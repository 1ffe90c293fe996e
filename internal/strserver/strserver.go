// Package strserver implements the Wukong+S string server: a shared,
// concurrency-safe mapping between RDF terms and compact numeric IDs.
//
// As in the paper (§3, §4.1), every string in data and queries is converted
// to a unique ID before it reaches the servers, so queries ship IDs rather
// than long strings. Entities (IRIs, literals, blank nodes appearing in
// subject/object position) get 46-bit IDs; predicates get 17-bit IDs from a
// separate space, so a store key [vid|pid|dir] is one 64-bit word (Wukong's
// layout, Fig. 6). The mapping table is never garbage collected (§4.1
// footnote 8): future one-shot or continuous queries may reference any
// previously seen entity.
//
// An entity is its interning key (rdf.Term.AppendKey's bytes), copied once
// into an append-only arena of fixed-size chunks. An ID reads its key through
// one packed 8-byte ref, and a key finds its ID in a flat open-addressed table
// of 16-byte cells that hold the ref, so a probe compares key bytes with no
// further indirection. None of the three holds a pointer per entity, and the
// strings the read API returns are views of the arena, whose bytes never
// change once written. IDs depend only on the order keys arrive in, never on
// the hash seed, which differs per Server.
package strserver

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/rdf"
)

// MaxPredicateID is the largest assignable predicate ID: the 17-bit pid
// field of a packed store key, beside rdf.MaxEntityID's 46-bit vid.
const MaxPredicateID rdf.ID = 1<<17 - 1

// ErrPredicateSpace refuses a predicate that would need an ID past
// MaxPredicateID.
var ErrPredicateSpace = errors.New("predicate space exhausted")

// Server interns terms and predicates. The zero value is not usable; call New.
type Server struct {
	mu sync.RWMutex

	seed  maphash.Seed
	arena [][]byte            // key bytes; a chunk is appended to, never moved
	refs  []*[refChunk]keyRef // entity ID - 1 → its key's ref
	nums  []*numChunk         // beside refs; nil for a chunk of IDs with no numeric literal
	tabs  [stripes]keyTable   // key → ID, by the top bits of the key's hash
	n     int                 // entities interned

	pred    map[string]rdf.ID // predicate IRI → predicate ID
	predToo []string          // predicate ID (1-based) → IRI
}

// numChunk holds the values of the numeric literals among refChunk IDs, and
// a bit per ID that says which ones are.
type numChunk struct {
	v  [refChunk]float64
	ok [refChunk / 64]uint64
}

// A keyRef locates a key in the arena: chunk<<32 | offset<<16 | length. A key
// of longKey bytes or more has a chunk of its own and length longKey.
type keyRef uint64

const (
	arenaChunk = 1 << 16 // bytes per shared arena chunk: a 16-bit offset
	longKey    = 1<<16 - 1
	refChunk   = 1 << 10 // refs per chunk of the ID → ref array
	idBits     = 46      // a cell's ID word keeps the hash's low 64-idBits bits above the ID
	stripeBits = 6
	stripes    = 1 << stripeBits
	minCells   = 16 // a new stripe's table
)

// keyTable is one stripe of the key table: open addressing with linear
// probing over a power-of-two array that doubles when it passes ¾ full.
// Striping bounds what one doubling re-hashes, under the write lock that
// every reader waits on, to a 64th of the keys. Keys are never deleted, so
// it needs no tombstones.
type keyTable struct {
	cells []cell
	shift uint8 // 64 - log2(len(cells))
	n     int   // keys held
}

func newKeyTable(size int) keyTable {
	return keyTable{cells: make([]cell, size), shift: uint8(64 - bits.Len(uint(size-1)))}
}

// cell is one slot of the key table: the key's ref, and its ID with the low
// bits of the key's hash above it as a tag. ID 0 is never assigned, so w == 0
// marks an empty cell.
type cell struct {
	ref keyRef
	w   uint64
}

// keyBuf is the stack space InternEntity and LookupEntity build a term key
// in; a longer key spills to the heap and still works.
const keyBuf = 128

// ReservedIndexID is the pseudo vertex ID used for index vertices in store
// keys (paper Fig. 6: key [0|pid|dir] lists all vertices touching pid).
const ReservedIndexID rdf.ID = 0

// New returns an empty string server. ID 0 is reserved for index vertices in
// both spaces, so assignment starts at 1.
func New() *Server {
	s := &Server{
		seed: maphash.MakeSeed(),
		pred: make(map[string]rdf.ID),
	}
	for i := range s.tabs {
		s.tabs[i] = newKeyTable(minCells)
	}
	return s
}

// keyOf returns the bytes ref points at. Caller holds mu.
func (s *Server) keyOf(ref keyRef) []byte {
	c := s.arena[ref>>32]
	if n := ref & 0xffff; n != longKey {
		off := ref >> 16 & 0xffff
		return c[off : off+n]
	}
	return c
}

// keyString returns entity id's key as a view of the arena, or false for an
// ID this server never assigned.
func (s *Server) keyString(id rdf.ID) (string, bool) {
	s.mu.RLock()
	if id == 0 || id > rdf.ID(s.n) {
		s.mu.RUnlock()
		return "", false
	}
	k := s.keyOf(s.refs[(id-1)/refChunk][(id-1)%refChunk])
	s.mu.RUnlock()
	return view(k), true
}

// view returns b's bytes as a string without copying them: for arena bytes,
// which never change once written, and for a key only read before it returns.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// lookup returns key's stripe, the index there of key's cell and its ID, or
// the index of the empty cell where key belongs and 0. The top stripeBits of
// the hash pick the stripe, the bits below them the probe start, and its low
// bits are the tag. Caller holds mu.
func (s *Server) lookup(key []byte, h uint64) (*keyTable, int, rdf.ID) {
	t := &s.tabs[h>>(64-stripeBits)]
	mask := len(t.cells) - 1
	tag := h << idBits
	for i := int(h << stripeBits >> t.shift); ; i = (i + 1) & mask {
		c := &t.cells[i]
		if c.w == 0 {
			return t, i, 0
		}
		if c.w&^uint64(rdf.MaxEntityID) == tag && string(s.keyOf(c.ref)) == string(key) {
			return t, i, rdf.ID(c.w & uint64(rdf.MaxEntityID))
		}
	}
}

// insertLocked assigns the next ID to key, absent, whose empty cell lookup
// returned as t.cells[i]. Caller holds mu for writing.
func (s *Server) insertLocked(t *keyTable, i int, key []byte, h uint64) rdf.ID {
	id := rdf.ID(s.n + 1)
	if id > rdf.MaxEntityID {
		panic("strserver: 46-bit entity ID space exhausted")
	}
	ref := s.store(key)
	if err := rdf.CheckKey(view(s.keyOf(ref))); err != nil {
		panic("strserver: " + err.Error())
	}
	c, j := s.n/refChunk, s.n%refChunk
	if j == 0 {
		s.refs = append(s.refs, new([refChunk]keyRef))
		s.nums = append(s.nums, nil)
	}
	s.refs[c][j] = ref
	s.n++
	t.cells[i] = cell{ref: ref, w: uint64(id) | h<<idBits}
	if key[0] == '"' {
		if v, err := strconv.ParseFloat(lexical(view(key)), 64); err == nil {
			if s.nums[c] == nil {
				s.nums[c] = new(numChunk)
			}
			s.nums[c].v[j] = v
			s.nums[c].ok[j/64] |= 1 << (j % 64)
		}
	}
	if t.n++; t.n*4 > len(t.cells)*3 {
		s.grow(t)
	}
	return id
}

// store copies key into the arena and returns its ref.
func (s *Server) store(key []byte) keyRef {
	c := len(s.arena) - 1
	if len(key) >= longKey {
		// A chunk of its own, full, so no later key is appended to it.
		s.arena = append(s.arena, append(make([]byte, 0, len(key)), key...))
		return keyRef(c+1)<<32 | longKey
	}
	if c < 0 || len(s.arena[c])+len(key) > cap(s.arena[c]) {
		s.arena = append(s.arena, make([]byte, 0, arenaChunk))
		c++
	}
	off := len(s.arena[c])
	s.arena[c] = append(s.arena[c], key...)
	return keyRef(c)<<32 | keyRef(off)<<16 | keyRef(len(key))
}

// grow doubles one stripe's table, re-hashing its keys.
func (s *Server) grow(t *keyTable) {
	n, old := t.n, t.cells
	*t = newKeyTable(2 * len(old))
	t.n = n
	mask := len(t.cells) - 1
	for _, c := range old {
		if c.w == 0 {
			continue
		}
		i := int(maphash.Bytes(s.seed, s.keyOf(c.ref)) << stripeBits >> t.shift)
		for t.cells[i].w != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = c
	}
}

// InternEntity returns the ID for a subject/object term, assigning a fresh
// one on first sight.
//
// The key is built in a stack buffer, so a known term allocates nothing; a
// new term's key is copied into the arena, so the table never keeps memory
// the caller's term points into (a request body).
func (s *Server) InternEntity(t rdf.Term) rdf.ID {
	var buf [keyBuf]byte
	k := t.AppendKey(buf[:0])
	h := maphash.Bytes(s.seed, k)
	s.mu.RLock()
	_, _, id := s.lookup(k, h)
	s.mu.RUnlock()
	if id != 0 {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tab, i, id := s.lookup(k, h)
	if id == 0 {
		id = s.insertLocked(tab, i, k, h)
	}
	return id
}

// InternKeys sets ids[j] to the entity ID of term key key(j) for every j,
// assigning fresh IDs to the keys not seen before in index order, as
// InternEntity of each in turn would. Every key must be a term key
// (rdf.CheckKey). It reads all of them under one read lock and takes the
// write lock only when some key is new, calling key under the lock, so key
// must only index the caller's data. A key is copied when it is stored, so
// key(j) may alias a buffer the caller reuses.
func (s *Server) InternKeys(ids []rdf.ID, key func(j int) []byte) {
	fresh := false
	s.mu.RLock()
	for j := range ids {
		k := key(j)
		_, _, ids[j] = s.lookup(k, maphash.Bytes(s.seed, k))
		fresh = fresh || ids[j] == 0
	}
	s.mu.RUnlock()
	if !fresh {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := range ids {
		if ids[j] != 0 {
			continue
		}
		k := key(j)
		h := maphash.Bytes(s.seed, k)
		t, i, id := s.lookup(k, h)
		if id == 0 {
			id = s.insertLocked(t, i, k, h)
		}
		ids[j] = id
	}
}

// LookupEntity returns the ID for a term without assigning one.
func (s *Server) LookupEntity(t rdf.Term) (rdf.ID, bool) {
	var buf [keyBuf]byte
	k := t.AppendKey(buf[:0])
	h := maphash.Bytes(s.seed, k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, _, id := s.lookup(k, h)
	return id, id != 0
}

// Entity returns the term for an entity ID. Its strings are views of the
// interned key.
func (s *Server) Entity(id rdf.ID) (rdf.Term, bool) {
	k, ok := s.keyString(id)
	if !ok {
		return rdf.Term{}, false
	}
	return rdf.TermFromKey(k), true
}

// Lexical returns an entity's lexical form — the Value of its term — as a
// substring of the interned key, without building the term: the key minus
// its kind byte, cut at the last `"^^` for a literal, exactly as
// rdf.TermFromKey splits it. Result rendering reads its cells a block at a
// time through Lexicals.
func (s *Server) Lexical(id rdf.ID) (string, bool) {
	k, ok := s.keyString(id)
	if !ok {
		return "", false
	}
	return lexical(k), true
}

// Block is the most IDs one Lexicals call resolves: one bit each in its
// result.
const Block = 64

// Lexicals sets lex[j] to Lexical(ids[j]) for every j and returns a mask
// with bit j set where Lexical's ok would be; lex[j] is "" where it is not.
// It reads all of them under one read lock in two passes, every ID's ref
// first and then every ref's key, so the block's cache misses overlap rather
// than queue one cell behind the other. len(ids) must be at most Block, and
// lex at least as long.
func (s *Server) Lexicals(ids []rdf.ID, lex []string) (ok uint64) {
	if len(ids) > Block {
		panic(fmt.Sprintf("strserver: Lexicals of %d IDs, more than %d", len(ids), Block))
	}
	lex = lex[:len(ids)] // out of range here, not under the lock
	var refs [Block]keyRef
	s.mu.RLock()
	n := rdf.ID(s.n)
	for j, id := range ids {
		if id-1 < n { // id 0 wraps past n
			refs[j] = s.refs[(id-1)/refChunk][(id-1)%refChunk]
			ok |= 1 << j
		}
	}
	for j := range ids {
		if ok&(1<<j) != 0 {
			lex[j] = lexical(view(s.keyOf(refs[j])))
		} else {
			lex[j] = ""
		}
	}
	s.mu.RUnlock()
	return ok
}

// lexical cuts a key to its term's Value.
func lexical(key string) string {
	body := key[1:]
	if key[0] == '"' {
		if i := strings.LastIndex(body, "\"^^"); i >= 0 {
			body = body[:i]
		}
	}
	return body
}

// MustEntity returns the term for an entity ID and panics if unknown; use it
// only for IDs that came out of this server.
func (s *Server) MustEntity(id rdf.ID) rdf.Term {
	t, ok := s.Entity(id)
	if !ok {
		panic(fmt.Sprintf("strserver: unknown entity ID %d", id))
	}
	return t
}

// Numeric returns the cached numeric value for an entity ID, if its term is a
// numeric literal: one whose lexical form (Lexical) parses as a float.
// FILTER evaluation uses this to avoid re-parsing lexical forms on the query
// path.
func (s *Server) Numeric(id rdf.ID) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || id > rdf.ID(s.n) {
		return 0, false
	}
	c, j := (id-1)/refChunk, (id-1)%refChunk
	if nc := s.nums[c]; nc != nil && nc.ok[j/64]&(1<<(j%64)) != 0 {
		return nc.v[j], true
	}
	return 0, false
}

// InternPredicate returns the ID for a predicate IRI, assigning a fresh one
// on first sight, or ErrPredicateSpace when no ID is left for it.
func (s *Server) InternPredicate(iri string) (rdf.ID, error) {
	var id [1]rdf.ID
	err := s.InternPredicates(id[:], func(int) string { return iri })
	return id[0], err
}

// InternPredicates sets pids[i] to the ID of predicate IRI iri(i) for every
// i, all or none: when the unseen IRIs would not all fit below
// MaxPredicateID it assigns none, leaves pids undefined and returns
// ErrPredicateSpace. Unseen IRIs get fresh IDs in index order. A write verb
// interns its body's predicates through here before its first mutation, so
// a body that does not fit is refused without a trace.
func (s *Server) InternPredicates(pids []rdf.ID, iri func(i int) string) error {
	s.mu.RLock()
	unseen := false
	for i := range pids {
		id, ok := s.pred[iri(i)]
		pids[i], unseen = id, unseen || !ok
	}
	s.mu.RUnlock()
	if !unseen {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var fresh map[string]bool
	for i := range pids {
		if p := iri(i); s.pred[p] == 0 && !fresh[p] {
			if fresh == nil {
				fresh = make(map[string]bool)
			}
			fresh[p] = true
		}
	}
	if len(s.predToo)+len(fresh) > int(MaxPredicateID) {
		return ErrPredicateSpace
	}
	for i := range pids {
		p := iri(i)
		id, ok := s.pred[p]
		if !ok {
			id = rdf.ID(len(s.predToo) + 1)
			// The IRI may be a slice of a request body; the table outlives it.
			p = strings.Clone(p)
			s.pred[p] = id
			s.predToo = append(s.predToo, p)
		}
		pids[i] = id
	}
	return nil
}

// EntityKeys returns every interned entity term key in ID order (entry i is
// ID i+1). Snapshot transfer dumps this so a restored replica re-interns
// terms in the same order and assigns identical IDs — store keys and vertex
// homing are ID-based, so replica-identical IDs are load-bearing.
func (s *Server) EntityKeys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, s.n)
	for j := range out {
		out[j] = view(s.keyOf(s.refs[j/refChunk][j%refChunk]))
	}
	return out
}

// PredicateIRIs returns every interned predicate IRI in ID order.
func (s *Server) PredicateIRIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.predToo...)
}

// LookupPredicate returns the ID for a predicate IRI without assigning one.
func (s *Server) LookupPredicate(iri string) (rdf.ID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.pred[iri]
	return id, ok
}

// Predicate returns the IRI for a predicate ID.
func (s *Server) Predicate(id rdf.ID) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.predToo) {
		return "", false
	}
	return s.predToo[id-1], true
}

// NumEntities returns the number of interned entities.
func (s *Server) NumEntities() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// NumPredicates returns the number of interned predicates.
func (s *Server) NumPredicates() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.predToo)
}

// EncodedTriple is a triple after ID conversion.
type EncodedTriple struct {
	S, P, O rdf.ID
}

// EncodedTuple is a stream tuple after ID conversion.
type EncodedTuple struct {
	EncodedTriple
	TS rdf.Timestamp
}

// EncodeTriple interns all three terms of a triple. A predicate with no ID
// left for it is ErrPredicateSpace, and then nothing is interned.
func (s *Server) EncodeTriple(t rdf.Triple) (EncodedTriple, error) {
	if !t.P.IsIRI() {
		panic(fmt.Sprintf("strserver: predicate must be an IRI, got %v", t.P))
	}
	p, err := s.InternPredicate(t.P.Value)
	if err != nil {
		return EncodedTriple{}, err
	}
	return s.EncodeWith(t, p), nil
}

// EncodeWith is EncodeTriple for a triple whose predicate ID the caller
// already holds (from InternPredicates): it interns the subject and object.
func (s *Server) EncodeWith(t rdf.Triple, pid rdf.ID) EncodedTriple {
	return EncodedTriple{S: s.InternEntity(t.S), P: pid, O: s.InternEntity(t.O)}
}

// EncodeTuple interns a stream tuple, as EncodeTriple does.
func (s *Server) EncodeTuple(t rdf.Tuple) (EncodedTuple, error) {
	enc, err := s.EncodeTriple(t.Triple)
	return EncodedTuple{EncodedTriple: enc, TS: t.TS}, err
}

// DecodeTriple converts an encoded triple back to terms.
func (s *Server) DecodeTriple(t EncodedTriple) (rdf.Triple, error) {
	sub, ok := s.Entity(t.S)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("strserver: unknown subject ID %d", t.S)
	}
	p, ok := s.Predicate(t.P)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("strserver: unknown predicate ID %d", t.P)
	}
	obj, ok := s.Entity(t.O)
	if !ok {
		return rdf.Triple{}, fmt.Errorf("strserver: unknown object ID %d", t.O)
	}
	return rdf.Triple{S: sub, P: rdf.NewIRI(p), O: obj}, nil
}

// MemoryBytes estimates the resident size of the mapping tables, used by the
// memory-accounting experiments (Table 7, §6.7).
func (s *Server) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, c := range s.arena {
		n += int64(cap(c))
	}
	n += int64(len(s.refs)) * refChunk * 8
	for i := range s.tabs {
		n += int64(len(s.tabs[i].cells)) * 16
	}
	for _, c := range s.nums {
		if c != nil {
			n += int64(unsafe.Sizeof(*c))
		}
	}
	for _, k := range s.predToo {
		n += int64(len(k)) + 16
	}
	return n
}
