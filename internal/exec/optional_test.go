package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/strserver"
)

// optionalFixture: three users; only some have an email; one email is
// numeric-scored for filter tests.
func optionalFixture(t *testing.T) *fixture {
	f := newFixture(t, 2)
	ty := f.pred("ty")
	email := f.pred("email")
	age := f.pred("age")
	person := f.id("Person")
	for _, u := range []string{"alice", "bob", "carol"} {
		f.stored.Insert(strserver.EncodedTriple{S: f.id(u), P: ty, O: person}, store.BaseSN, false, nil)
	}
	f.stored.Insert(strserver.EncodedTriple{S: f.id("alice"), P: email, O: f.id("alice@x")}, store.BaseSN, false, nil)
	f.stored.Insert(strserver.EncodedTriple{S: f.id("carol"), P: email, O: f.id("carol@x")}, store.BaseSN, false, nil)
	f.stored.Insert(strserver.EncodedTriple{S: f.id("alice"), P: age,
		O: f.ss.InternEntity(rdf.NewIntLiteral(30))}, store.BaseSN, false, nil)
	f.stored.Insert(strserver.EncodedTriple{S: f.id("bob"), P: age,
		O: f.ss.InternEntity(rdf.NewIntLiteral(17))}, store.BaseSN, false, nil)
	return f
}

func runOpt(t *testing.T, f *fixture, src string) *ResultSet {
	t.Helper()
	q := sparql.MustParse(src)
	p, err := plan.Compile(q, f.ss, statsAdapter{f})
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := f.ex.Execute(Request{Node: 0, Mode: InPlace, Access: provider{f}, Resolver: f.ss}, p)
	if err != nil {
		t.Fatal(err)
	}
	rs.Sort()
	return rs
}

func TestOptionalLeftJoin(t *testing.T) {
	f := optionalFixture(t)
	rs := runOpt(t, f, `
SELECT ?u ?e WHERE { ?u ty Person . OPTIONAL { ?u email ?e } }`)
	if rs.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (all persons kept)\n%s", rs.Len(), rs)
	}
	bound, unbound := 0, 0
	for ri := 0; ri < rs.Len(); ri++ {
		row := rowOf(rs, ri)
		if row[1].ID == Unbound {
			unbound++
		} else {
			bound++
		}
	}
	if bound != 2 || unbound != 1 {
		t.Errorf("bound=%d unbound=%d, want 2/1", bound, unbound)
	}
}

func TestOptionalRequiredStillInner(t *testing.T) {
	f := optionalFixture(t)
	// Without OPTIONAL, the email pattern is a join: bob drops out.
	rs := runOpt(t, f, `SELECT ?u ?e WHERE { ?u ty Person . ?u email ?e }`)
	if rs.Len() != 2 {
		t.Errorf("inner join rows = %d, want 2", rs.Len())
	}
}

func TestOptionalMultipleGroups(t *testing.T) {
	f := optionalFixture(t)
	rs := runOpt(t, f, `
SELECT ?u ?e ?a WHERE {
  ?u ty Person .
  OPTIONAL { ?u email ?e }
  OPTIONAL { ?u age ?a }
}`)
	if rs.Len() != 3 {
		t.Fatalf("rows = %d\n%s", rs.Len(), rs)
	}
	// carol has email but no age; bob has age but no email.
	byUser := map[string][2]bool{}
	for i := 0; i < rs.Len(); i++ {
		u, _ := f.ss.Entity(rs.Cell(i, 0).ID)
		byUser[u.Value] = [2]bool{rs.Cell(i, 1).ID != Unbound, rs.Cell(i, 2).ID != Unbound}
	}
	if got := byUser["alice"]; !got[0] || !got[1] {
		t.Errorf("alice = %v, want both bound", got)
	}
	if got := byUser["bob"]; got[0] || !got[1] {
		t.Errorf("bob = %v, want age only", got)
	}
	if got := byUser["carol"]; !got[0] || got[1] {
		t.Errorf("carol = %v, want email only", got)
	}
}

func TestOptionalWithFilterInside(t *testing.T) {
	f := optionalFixture(t)
	// The filter applies inside the group: an age that fails it counts as
	// no match, leaving the variable unbound rather than dropping the row.
	rs := runOpt(t, f, `
SELECT ?u ?a WHERE { ?u ty Person . OPTIONAL { ?u age ?a . FILTER (?a >= 18) } }`)
	if rs.Len() != 3 {
		t.Fatalf("rows = %d\n%s", rs.Len(), rs)
	}
	for i := 0; i < rs.Len(); i++ {
		u, _ := f.ss.Entity(rs.Cell(i, 0).ID)
		boundAge := rs.Cell(i, 1).ID != Unbound
		if u.Value == "alice" && !boundAge {
			t.Error("alice's adult age dropped")
		}
		if u.Value == "bob" && boundAge {
			t.Error("bob's minor age kept despite the filter")
		}
	}
}

func TestFilterOnUnboundIsFalse(t *testing.T) {
	f := optionalFixture(t)
	// An outer filter referencing the optional variable rejects unbound rows
	// for every comparison operator (SPARQL type-error semantics).
	rs := runOpt(t, f, `
SELECT ?u ?e WHERE { ?u ty Person . OPTIONAL { ?u email ?e } FILTER (?e != nothing) }`)
	if rs.Len() != 2 {
		t.Errorf("rows = %d, want 2 (unbound fails even !=)\n%s", rs.Len(), rs)
	}
}

func TestOptionalNeverMatches(t *testing.T) {
	f := optionalFixture(t)
	// The group references an unknown constant: every row keeps unbound.
	rs := runOpt(t, f, `
SELECT ?u ?e WHERE { ?u ty Person . OPTIONAL { ?u email ?e . ?e ty GhostClass } }`)
	if rs.Len() != 3 {
		t.Fatalf("rows = %d\n%s", rs.Len(), rs)
	}
	for ri := 0; ri < rs.Len(); ri++ {
		row := rowOf(rs, ri)
		if row[1].ID != Unbound {
			t.Errorf("never-matching group bound ?e: %v", row)
		}
	}
}

func TestOptionalValidation(t *testing.T) {
	if _, err := sparql.Parse(`SELECT ?u WHERE { ?u ty Person . OPTIONAL { } }`); err == nil {
		t.Error("empty OPTIONAL accepted")
	}
	// Projecting a variable bound only inside OPTIONAL is legal.
	if _, err := sparql.Parse(`SELECT ?e WHERE { ?u ty Person . OPTIONAL { ?u email ?e } }`); err != nil {
		t.Errorf("optional-only projection rejected: %v", err)
	}
}

func TestOptionalOverStreamWindow(t *testing.T) {
	f := newFixture(t, 2) // the Fig. 1 fixture: T-15 posted in the window
	rs := runOpt(t, f, `
SELECT ?X ?Z ?P
FROM Tweet_Stream [RANGE 10s STEP 1s]
WHERE {
  GRAPH Tweet_Stream { ?X po ?Z }
  OPTIONAL { GRAPH Tweet_Stream { ?Z ga ?P } }
}`)
	if rs.Len() != 1 {
		t.Fatalf("rows = %d\n%s", rs.Len(), rs)
	}
	if rs.Cell(0, 2).ID == Unbound {
		t.Error("GPS position should bind from the transient store")
	}
}
