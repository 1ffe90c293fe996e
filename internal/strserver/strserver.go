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
package strserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"

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

	entity  map[string]rdf.ID // term key → entity ID
	entToo  []string          // entity ID (1-based) → term key
	numeric []float64         // parallel to entToo: cached numeric value
	isNum   []bool

	pred    map[string]rdf.ID // predicate IRI → predicate ID
	predToo []string          // predicate ID (1-based) → IRI
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
	return &Server{
		entity: make(map[string]rdf.ID),
		pred:   make(map[string]rdf.ID),
	}
}

// InternEntity returns the ID for a subject/object term, assigning a fresh
// one on first sight.
//
// The key is built in a stack buffer and looked up without a conversion, so
// a known term allocates nothing; a new term's key is a fresh string, so the
// table never keeps memory the caller's term points into (a request body).
func (s *Server) InternEntity(t rdf.Term) rdf.ID {
	var buf [keyBuf]byte
	k := t.AppendKey(buf[:0])
	s.mu.RLock()
	id, ok := s.entity[string(k)]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.entity[string(k)]; ok {
		return id
	}
	key := string(k)
	id = rdf.ID(len(s.entToo) + 1)
	if id > rdf.MaxEntityID {
		panic("strserver: 46-bit entity ID space exhausted")
	}
	s.entity[key] = id
	s.entToo = append(s.entToo, key)
	v, ok := t.Numeric()
	s.numeric = append(s.numeric, v)
	s.isNum = append(s.isNum, ok)
	return id
}

// LookupEntity returns the ID for a term without assigning one.
func (s *Server) LookupEntity(t rdf.Term) (rdf.ID, bool) {
	var buf [keyBuf]byte
	k := t.AppendKey(buf[:0])
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.entity[string(k)]
	return id, ok
}

// Entity returns the term for an entity ID.
func (s *Server) Entity(id rdf.ID) (rdf.Term, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.entToo) {
		return rdf.Term{}, false
	}
	return rdf.TermFromKey(s.entToo[id-1]), true
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
// numeric literal. FILTER evaluation uses this to avoid re-parsing lexical
// forms on the query path.
func (s *Server) Numeric(id rdf.ID) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 || int(id) > len(s.isNum) || !s.isNum[id-1] {
		return 0, false
	}
	return s.numeric[id-1], true
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
	return append([]string(nil), s.entToo...)
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
	return len(s.entToo)
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
	for _, k := range s.entToo {
		n += int64(len(k)) + 16 // key bytes + map/slice overhead approximation
	}
	for _, k := range s.predToo {
		n += int64(len(k)) + 16
	}
	n += int64(len(s.numeric))*8 + int64(len(s.isNum))
	return n
}
