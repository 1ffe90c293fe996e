package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/strserver"
	"repro/internal/wire"
)

// startPair brings up a seed and one joined member over loopback TCP, both
// engines built from flowCfg, with stream S registered.
func startPair(t *testing.T, flowCfg core.FlowConfig) (seed, d1 *daemon) {
	t.Helper()
	withEngine := func(c *Config) {
		eng, err := core.New(core.Config{Nodes: engineNodes, WorkersPerNode: 2, Metrics: obs.NewRegistry(""), Flow: flowCfg})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		c.Engine.Close()
		c.Engine = eng
	}
	seed = startSeedCfg(t, withEngine)
	t.Cleanup(seed.close)
	d1 = joinDaemonCfg(t, seed.tr.Addr(), "", withEngine)
	t.Cleanup(d1.close)
	if _, err := d1.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatalf("STREAM: %v", err)
	}
	return seed, d1
}

// expectRefused forwards one op through via under an id= token, then once
// more under the same token, and requires of each attempt that it fails with
// the same text and uses up exactly one sequence number on every replica as
// a no-op (nothing pending, the same rows everywhere). The retry moving the
// sequence again shows it ran again instead of answering from the dedup
// table. It returns the refusal.
func expectRefused(t *testing.T, via *daemon, all []*daemon, kind string, args []string, body string) error {
	t.Helper()
	withID := append(append([]string(nil), args...), "id=refused-"+kind)
	var first error
	for attempt := 1; attempt <= 2; attempt++ {
		// The authority acks a forwarded op before it applies it: take the
		// baseline once every replica holds the last one.
		waitConverged(t, all...)
		applied := all[0].node.Applied()
		_, err := via.node.Forward(kind, withID, body)
		if err == nil {
			t.Fatalf("%s %v %q was accepted (attempt %d)", kind, args, body, attempt)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("retried %s refused as %q, first as %q", kind, err, first)
		}
		for _, d := range all {
			// The authority may still be applying the refused op.
			requireApplied(t, d, applied+1)
			if got := d.node.Applied(); got != applied+1 {
				t.Fatalf("refused %s (attempt %d) moved rank %d from op %d to %d, want %d", kind, attempt, d.node.Self(), applied, got, applied+1)
			}
			if got := d.eng.PendingEmits(); got != 0 {
				t.Fatalf("refused %s left %d tuples pending on rank %d", kind, got, d.node.Self())
			}
		}
		expectSameRows(t, "SELECT ?X ?Y WHERE { ?X po ?Y }", all...)
		expectSameRows(t, "SELECT ?X ?Y WHERE { ?X p ?Y }", all...)
	}
	return first
}

// counter reads a counter from d's metrics registry.
func counter(d *daemon, name string) int64 {
	return d.node.cfg.Metrics.Counter(name).Value()
}

// expectSameRows requires every daemon to answer q identically, and returns
// the rows.
func expectSameRows(t *testing.T, q string, ds ...*daemon) []string {
	t.Helper()
	want := queryRows(t, ds[0], q)
	for _, d := range ds[1:] {
		if got := queryRows(t, d, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rank %d answers %v, rank %d answers %v", q, ds[0].node.Self(), want, d.node.Self(), got)
		}
	}
	return want
}

// A refused EMIT — out of order here — must not leave its accepted prefix
// anywhere: every replica applies the sequenced op and refuses it, and a
// refusal changes nothing.
func TestRefusedEmitLeavesReplicasEqual(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	all := []*daemon{seed, d1}
	err := expectRefused(t, d1, all, "EMIT", []string{"S"}, "<a> <po> <b> . @250\n<c> <po> <d> . @150\n")
	if !strings.Contains(err.Error(), "timestamp regression") {
		t.Fatalf("err = %v, want the timestamp regression", err)
	}
	if _, err := d1.node.Forward("ADVANCE", []string{"400"}, ""); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, all...)
	if rows := expectSameRows(t, "SELECT ?X ?Y WHERE { ?X po ?Y }", all...); len(rows) != 0 {
		t.Fatalf("refused tuples became visible: %v", rows)
	}
}

// A malformed tuple line is an error, not the end of the body: the lines
// after it must not be silently lost behind an "emitted 1".
func TestMalformedEmitLineIsAnError(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	err := expectRefused(t, d1, []*daemon{seed, d1}, "EMIT", []string{"S"}, "<a> <po> <b> . @250\nnot a tuple\n<c> <po> <d> . @260\n")
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want the bad line named", err)
	}
}

// The same for a stream-buffer refusal, which is also typed on the member:
// its own apply raises the ShedError the authority's does, hint included.
func TestShedEmitLeavesReplicasEqualAndStaysTyped(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{MaxPending: 2})
	all := []*daemon{seed, d1}
	four := "<a> <po> <b> . @10\n<c> <po> <d> . @20\n<e> <po> <f> . @30\n<g> <po> <h> . @40\n"
	if err := expectRefused(t, d1, all, "EMIT", []string{"S"}, four); errors.Is(err, flow.ErrShed) || !strings.Contains(err.Error(), "can never fit") {
		t.Fatalf("four tuples into a two-tuple buffer: %v, want an error that says it can never fit", err)
	}
	if _, err := d1.node.Forward("EMIT", []string{"S"}, "<a> <po> <b> . @10\n"); err != nil {
		t.Fatal(err)
	}
	// The authority acks a forwarded op before it applies it.
	waitConverged(t, all...)
	applied := seed.node.Applied()
	_, err := d1.node.Forward("EMIT", []string{"S"}, "<c> <po> <d> . @20\n<e> <po> <f> . @30\n")
	var se *flow.ShedError
	if !errors.As(err, &se) || se.RetryAfter <= 0 || !strings.Contains(se.Reason, "admission buffer full") {
		t.Fatalf("shed across the forward hop = %v, want a typed ShedError with its hint", err)
	}
	requireApplied(t, seed, applied+1)
	requireApplied(t, d1, applied+1)
	if seed.node.Applied() != applied+1 || d1.node.Applied() != applied+1 || seed.eng.PendingEmits() != 1 || d1.eng.PendingEmits() != 1 {
		t.Fatalf("shed EMIT left a trace: applied %d→%d/%d, pending %d/%d", applied, seed.node.Applied(), d1.node.Applied(), seed.eng.PendingEmits(), d1.eng.PendingEmits())
	}
	if _, err := d1.node.Forward("ADVANCE", []string{"400"}, ""); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, all...)
	if rows := expectSameRows(t, "SELECT ?X ?Y WHERE { ?X po ?Y }", all...); !reflect.DeepEqual(rows, []string{"a b"}) {
		t.Fatalf("rows = %v, want only the admitted tuple", rows)
	}
}

// A LOAD with a bad line inserts nothing, anywhere.
func TestRefusedLoadLeavesReplicasEqual(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	all := []*daemon{seed, d1}
	err := expectRefused(t, d1, all, "LOAD", nil, "<a> <p> <b> .\nnot a triple\n<c> <p> <d> .\n")
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want the bad line named", err)
	}
	if reply, err := d1.node.Forward("LOAD", nil, "<e> <p> <f> .\n"); err != nil || reply != "loaded 1" {
		t.Fatalf("LOAD = %q, %v", reply, err)
	}
	waitConverged(t, all...)
	if rows := expectSameRows(t, "SELECT ?X ?Y WHERE { ?X p ?Y }", all...); !reflect.DeepEqual(rows, []string{"e f"}) {
		t.Fatalf("rows = %v, want only the good LOAD", rows)
	}
}

// A refused REGISTER must not burn the auto-name counter (a refusal changes
// nothing): the next unnamed query gets the same name in the ack and on
// every replica, so a POLL on the member finds it under the acked name.
func TestRefusedRegisterLeavesReplicasEqual(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	all := []*daemon{seed, d1}
	const unnamed = "SELECT ?X ?Y FROM %s [RANGE 100ms STEP 100ms] WHERE { GRAPH %s { ?X po ?Y } }"
	expectRefused(t, d1, all, "REGISTER", nil, strings.ReplaceAll(unnamed, "%s", "NOPE"))
	reply, err := d1.node.Forward("REGISTER", nil, strings.ReplaceAll(unnamed, "%s", "S"))
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, all...)
	for _, d := range all {
		cqs := d.eng.ContinuousOrdered()
		if len(cqs) != 1 || "registered "+cqs[0].Name != reply {
			t.Fatalf("rank %d holds %d queries (first %q), the ack was %q", d.node.Self(), len(cqs), cqs[0].Name, reply)
		}
	}
}

// verbSeeds are the conformance script's commands (internal/server
// TestWriteVerbsConformAcrossModes), as (kind, args, body), and last an EMIT
// whose only predicate is new and which can never fit FuzzApplyVerb's
// four-tuple buffer: refused for room, it must not have interned it.
var verbSeeds = []struct{ kind, args, body string }{
	{"STREAM", "S 100", ""},
	{"STREAM", "T 100 ga", ""},
	{"LOAD", "", "<a> <p> <b> .\n"},
	{"REGISTER", "", "REGISTER QUERY Q1 AS\nSELECT ?X ?Y FROM S [RANGE 100ms STEP 100ms]\nWHERE { GRAPH S { ?X po ?Y } }\n"},
	{"EMIT", "S", "<a> <po> <b> . @10\n"},
	{"ADVANCE", "100", ""},
	{"STREAM", "S", ""},
	{"LOAD", "extra", "<a> <p> <b> .\n"},
	{"EMIT", "", ""},
	{"EMIT", "S T", "<a> <po> <b> . @300\n"},
	{"ADVANCE", "1 2", ""},
	{"REGISTER", "extra", "SELECT ?X WHERE { ?X p ?Y }\n"},
	{"STREAM", "U 0", ""},
	{"STREAM", "U abc", ""},
	{"ADVANCE", "abc", ""},
	{"EMIT", "nope", "<a> <po> <b> . @300\n"},
	{"EMIT", "S", "<a> <po> <b> . @300\ngarbage\n<c> <po> <d> . @310\n"},
	{"LOAD", "", "<a> <p> <b> .\nnot a triple\n"},
	{"LOAD", "", "<a> \"p\" <b> .\n"},
	{"EMIT", "S", "<a> <po> <b> . @250\n<c> <po> <d> . @150\n"},
	{"EMIT", "S", "<a> <po> <b> . @300\n<a> <po> <c> . @301\n<a> <po> <d> . @302\n<a> <po> <e> . @303\n<a> <po> <f> . @304\n"},
	{"REGISTER", "", "this is not sparql\n"},
	{"BOGUS", "x", "y"},
	{"EMIT", "S", "<a> <fresh> <b> . @300\n<a> <fresh> <c> . @301\n<a> <fresh> <d> . @302\n<a> <fresh> <e> . @303\n<a> <fresh> <f> . @304\n"},
}

// FuzzDecodeOp: arbitrary bytes never panic the op decoder, and an encoded
// op decodes to itself.
func FuzzDecodeOp(f *testing.F) {
	for i, s := range verbSeeds {
		f.Add(encodeOp(uint64(i+1), 1, "", s.kind, strings.Fields(s.args), s.body))
	}
	f.Add(encodeOp(7, 3, "c1-9", "EPOCH", []string{"3", "1"}, ""))
	f.Add([]byte("OP x"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		seq, epoch, id, kind, args, body, err := decodeOp(string(p))
		if err != nil {
			return
		}
		// Whatever decoded is whitespace-free by construction, so it must
		// survive the round trip.
		seq2, epoch2, id2, kind2, args2, body2, err := decodeOp(string(encodeOp(seq, epoch, id, kind, args, body)))
		if err != nil || seq2 != seq || epoch2 != epoch || id2 != id || kind2 != kind || body2 != body ||
			len(args2) != len(args) || (len(args) > 0 && !reflect.DeepEqual(args2, args)) {
			t.Fatalf("round trip of %q: got (%d %d %q %q %q %q, %v), want (%d %d %q %q %q %q)",
				p, seq2, epoch2, id2, kind2, args2, body2, err, seq, epoch, id, kind, args, body)
		}
	})
}

// FuzzApplyVerb: arbitrary (kind, args, body) never panics the interpreter,
// and a refusal leaves no trace — not in a stream buffer, the store, the
// clock, or the string server's ID assignment.
func FuzzApplyVerb(f *testing.F) {
	for _, s := range verbSeeds {
		f.Add(s.kind, s.args, s.body)
	}
	// New terms on every line but the last, which is malformed: the body's
	// entity keys are cut before any line is refused, and none is interned.
	f.Add("EMIT", "S", "<n1> <po> <n2> . @300\n_:n3 <po> \"n4\" . @301\n<n5> <po>\n")
	f.Fuzz(func(t *testing.T, kind, args, body string) {
		// The clock seals one batch per stream interval it passes, empty or
		// not, so a far-future ADVANCE is slow by design, not a finding.
		if ts, err := strconv.ParseInt(strings.TrimSpace(args), 10, 64); kind == "ADVANCE" && err == nil && ts > 1e6 {
			t.Skip()
		}
		eng, err := core.New(core.Config{Nodes: 2, Metrics: obs.NewRegistry(""), Flow: core.FlowConfig{MaxPending: 4}})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, setup := range verbSeeds[:6] {
			if _, err := ApplyVerb(eng, nil, setup.kind, strings.Fields(setup.args), setup.body); err != nil {
				t.Fatalf("setup %s: %v", setup.kind, err)
			}
		}
		type state struct {
			pending, entries, entities, predicates int
			now                                    int64
		}
		snap := func() state {
			ss := eng.StringServer()
			return state{eng.PendingEmits(), int(eng.Store().Memory().Entries), ss.NumEntities(), ss.NumPredicates(), int64(eng.Now())}
		}
		before := snap()
		if _, err := ApplyVerb(eng, nil, kind, strings.Fields(args), body); err != nil {
			if after := snap(); after != before {
				t.Fatalf("%s %q %q refused (%v) but changed %+v into %+v", kind, args, body, err, before, after)
			}
		}
	})
}

// A LOAD after the first sealed snapshot is written at the next snapshot
// number, not the base one. The setup verbs seal <a> po <b> under SN 1, so a
// LOAD touching <b>'s predicate index at the base snapshot would regress it
// and panic every replica. One-shots see the loaded triple from the next
// stable snapshot on, and not before.
func TestLoadAfterTheFirstSealedSnapshot(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2, Metrics: obs.NewRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, setup := range verbSeeds[:6] {
		if _, err := ApplyVerb(eng, nil, setup.kind, strings.Fields(setup.args), setup.body); err != nil {
			t.Fatalf("setup %s: %v", setup.kind, err)
		}
	}
	rows := func() int {
		t.Helper()
		res, err := eng.Query("SELECT ?X WHERE { ?X q <b> }")
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	if _, err := ApplyVerb(eng, nil, "LOAD", nil, "<c> <q> <b> .\n"); err != nil {
		t.Fatal(err)
	}
	if n := rows(); n != 0 {
		t.Errorf("%d rows before the next stable snapshot, want 0", n)
	}
	if _, err := ApplyVerb(eng, nil, "ADVANCE", []string{"200"}, ""); err != nil {
		t.Fatal(err)
	}
	if n := rows(); n != 1 {
		t.Errorf("%d rows from the next stable snapshot on, want 1", n)
	}
	if _, err := ApplyVerb(eng, nil, "EMIT", []string{"S"}, "<c> <po> <b> . @250\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyVerb(eng, nil, "ADVANCE", []string{"300"}, ""); err != nil {
		t.Fatal(err)
	}
}

// LOADs racing ADVANCEs on a standalone daemon, where nothing serialises
// ApplyVerb, never write below a batch still being injected, nor below one
// still to be sealed: the streams seal two batches per 100 ms snapshot plan
// and the clock moves 50 ms a step, so half the time the newest published
// plan still has a batch to come.
func TestConcurrentLoadAndAdvance(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2, Metrics: obs.NewRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, name := range []string{"S", "T"} {
		if _, err := ApplyVerb(eng, nil, "STREAM", []string{name, "50"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 60
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			for _, name := range []string{"S", "T"} {
				body := fmt.Sprintf("<v%d> <po> <hub> . @%d\n<hub> <po> <v%d> . @%d\n", i, 50*i-10, i, 50*i-5)
				if _, err := ApplyVerb(eng, nil, "EMIT", []string{name}, body); err != nil {
					t.Error(err)
				}
			}
			if _, err := ApplyVerb(eng, nil, "ADVANCE", []string{strconv.Itoa(50 * i)}, ""); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := ApplyVerb(eng, nil, "LOAD", nil, fmt.Sprintf("<hub> <po> <w%d> .\n<w%d> <po> <hub> .\n", i, i)); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if _, err := ApplyVerb(eng, nil, "ADVANCE", []string{strconv.Itoa(50 * (rounds + 2))}, ""); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT ?X WHERE { <hub> po ?X }")
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * rounds; res.Len() != want { // one edge per round from S, T and the loads
		t.Errorf("<hub> has %d out-neighbours once everything is stable, want %d", res.Len(), want)
	}
}

// A durable log that holds a refused op resumes cleanly: the op replays as
// refused — its seq used up, nothing applied, no error — and the restarted
// authority holds what the crashed one held.
func TestResumeReplaysRefusedOp(t *testing.T) {
	dir := t.TempDir()
	durable := func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	}
	seed := startSeedCfg(t, durable)
	for _, op := range []struct {
		kind, arg, body string
		refused         bool
	}{
		{"STREAM", "S 100", "", false},
		{"EMIT", "S", "<a> <po> <b> . @250\n<c> <po> <d> . @150\n", true},
		{"EMIT", "S", "<e> <po> <f> . @260\n", false},
		{"ADVANCE", "400", "", false},
	} {
		if _, err := seed.node.Forward(op.kind, strings.Fields(op.arg), op.body); (err != nil) != op.refused {
			t.Fatalf("%s %s: err = %v, want refused = %v", op.kind, op.arg, err, op.refused)
		}
	}
	q := "SELECT ?X ?Y WHERE { ?X po ?Y }"
	want := queryRows(t, seed, q)
	wantApplied := seed.node.Applied()
	addr := seed.tr.Addr()
	seed.close() // crash

	d := &daemon{eng: newEngine(t)}
	defer d.close()
	var err error
	for i := 0; i < 50; i++ { // the crashed daemon's port can linger briefly
		if d.tr, err = wire.ListenTCP(addr, tcpConfig(SeedRank, nil), obs.NewRegistry("")); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	cfg := clusterConfig(d.tr, SeedRank, d.eng, d)
	cfg.SelfAddr = addr
	durable(&cfg)
	if d.node, err = Resume(cfg); err != nil {
		t.Fatalf("resume over a refused op: %v", err)
	}
	// +1: the re-fencing EPOCH op.
	if got := d.node.Applied(); got != wantApplied+1 {
		t.Fatalf("resumed applied = %d, want %d", got, wantApplied+1)
	}
	if got := counter(d, "cluster_ops_refused_total"); got != 1 {
		t.Fatalf("replay refused %d ops, want 1", got)
	}
	if got := queryRows(t, d, q); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, []string{"e f"}) {
		t.Fatalf("resumed rows = %v, crashed authority held %v, want only the accepted tuple", got, want)
	}
}

// A member that catches up by SYNC across refused ops converges: it replays
// each as a refusal and ends where the replicas that took the broadcast did.
func TestSyncAcrossRefusedOpConverges(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	expectRefused(t, d1, []*daemon{seed, d1}, "EMIT", []string{"S"}, "<a> <po> <b> . @250\n<c> <po> <d> . @150\n")
	if _, err := d1.node.Forward("EMIT", []string{"S"}, "<e> <po> <f> . @260\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.node.Forward("ADVANCE", []string{"400"}, ""); err != nil {
		t.Fatal(err)
	}
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()
	all := []*daemon{seed, d1, d2}
	waitConverged(t, all...)
	if got := counter(d2, "cluster_ops_synced_total"); got != int64(d2.node.Applied()) {
		t.Fatalf("joiner took %d of its %d ops by SYNC, want all", got, d2.node.Applied())
	}
	for _, d := range all {
		if got := counter(d, "cluster_ops_refused_total"); got != 2 {
			t.Fatalf("rank %d refused %d ops, want 2 (one refusal and its retry)", d.node.Self(), got)
		}
	}
	if rows := expectSameRows(t, "SELECT ?X ?Y WHERE { ?X po ?Y }", all...); !reflect.DeepEqual(rows, []string{"e f"}) {
		t.Fatalf("rows = %v, want only the accepted tuple", rows)
	}
}

// fillPredicateSpace interns the same fresh predicates, in the same order,
// into each string server until free IDs are left: what a long history of
// LOADs would leave on every replica, without the history.
func fillPredicateSpace(t *testing.T, free int, sss ...*strserver.Server) {
	t.Helper()
	base := sss[0].NumPredicates()
	for _, ss := range sss {
		if n := ss.NumPredicates(); n != base {
			t.Fatalf("replicas hold %d and %d predicates before the fill", base, n)
		}
	}
	for _, ss := range sss {
		pids := make([]rdf.ID, int(strserver.MaxPredicateID)-free-base)
		if err := ss.InternPredicates(pids, func(i int) string { return "fill/" + strconv.Itoa(base+i) }); err != nil {
			t.Fatal(err)
		}
	}
}

// With the predicate space full, a LOAD, an EMIT and a STREAM that each need
// one more predicate are refused alike on every replica, each as one
// sequenced no-op: no predicate, store key, row or pending tuple appears, even
// from the body's lines whose predicates are known.
func TestPredicateSpaceExhaustedIsRefusedEverywhere(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	all := []*daemon{seed, d1}
	if _, err := d1.node.Forward("LOAD", nil, "<a> <p> <b> .\n<c> <po> <d> .\n"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, all...)
	fillPredicateSpace(t, 0, seed.eng.StringServer(), d1.eng.StringServer())

	type state struct {
		preds int
		keys  int64
		rows  []string
	}
	snap := func(d *daemon) state {
		return state{d.eng.StringServer().NumPredicates(), d.eng.Store().Memory().Entries, queryRows(t, d, "SELECT ?X ?Y WHERE { ?X p ?Y }")}
	}
	before := []state{snap(seed), snap(d1)}
	for _, op := range []struct {
		kind string
		args []string
		body string
	}{
		{"LOAD", nil, "<x> <p> <y> .\n<x> <new1> <y> .\n"},
		{"EMIT", []string{"S"}, "<x> <po> <y> . @10\n<x> <new2> <y> . @11\n"},
		{"STREAM", []string{"T", "100", "new3"}, ""},
	} {
		err := expectRefused(t, d1, all, op.kind, op.args, op.body)
		if !strings.Contains(err.Error(), strserver.ErrPredicateSpace.Error()) {
			t.Fatalf("%s refused as %q, want %q", op.kind, err, strserver.ErrPredicateSpace)
		}
		for i, d := range all {
			if got := snap(d); !reflect.DeepEqual(got, before[i]) {
				t.Fatalf("refused %s changed rank %d from %+v to %+v", op.kind, d.node.Self(), before[i], got)
			}
		}
	}
	for _, d := range all {
		if _, ok := d.eng.SourceOf("T"); ok {
			t.Fatalf("rank %d registered the refused stream", d.node.Self())
		}
	}
	// Known predicates still fit.
	if reply, err := d1.node.Forward("LOAD", nil, "<e> <p> <f> .\n"); err != nil || reply != "loaded 1" {
		t.Fatalf("LOAD of a known predicate at the cap = %q, %v", reply, err)
	}
	waitConverged(t, all...)
	if rows := expectSameRows(t, "SELECT ?X ?Y WHERE { ?X p ?Y }", all...); !reflect.DeepEqual(rows, []string{"a b", "e f"}) {
		t.Fatalf("rows = %v, want the first LOAD and the last", rows)
	}
}

// A transcript whose predicate table does not fit the predicate space fails
// to restore with an error, and before it changes anything: the entity it
// lists first and the stream it lists after are not there.
func TestSnapshotPastThePredicateSpaceIsRefused(t *testing.T) {
	d := startSeedCfg(t, nil)
	defer d.close()
	var b strings.Builder
	b.WriteString("WSSNAP 1\nSTATE SEQ 9 EPOCH 1 AUTH 0 NOW 0\n")
	ent := string(rdf.NewIRI("restored").AppendKey(nil))
	fmt.Fprintf(&b, "ENT %d\n%s\n", len(ent), ent)
	for i := 0; i <= int(strserver.MaxPredicateID); i++ {
		iri := "p" + strconv.Itoa(i)
		fmt.Fprintf(&b, "PRED %d\n%s\n", len(iri), iri)
	}
	b.WriteString("STREAM S 100\n")
	ss := d.eng.StringServer()
	applied, ents, preds := d.node.Applied(), ss.NumEntities(), ss.NumPredicates()
	d.node.applyMu.Lock()
	_, _, _, err := d.node.applySnapshotLocked(b.String())
	d.node.applyMu.Unlock()
	if !errors.Is(err, strserver.ErrPredicateSpace) {
		t.Fatalf("restore of %d predicates: err = %v, want ErrPredicateSpace", strserver.MaxPredicateID+1, err)
	}
	if _, ok := d.eng.SourceOf("S"); ok || ss.NumEntities() != ents || ss.NumPredicates() != preds || d.node.Applied() != applied {
		t.Fatalf("the refused restore left a trace: stream %v, entities %d→%d, predicates %d→%d, applied %d→%d",
			ok, ents, ss.NumEntities(), preds, ss.NumPredicates(), applied, d.node.Applied())
	}
}

// Standalone LOADs and EMITs race for the last free predicate IDs (run under
// -race). Each is admitted whole or refused whole: the predicates assigned are
// exactly the admitted ops' new ones, and the tuples pending exactly the
// admitted EMITs'.
func TestConcurrentLoadAndEmitRaceForTheLastPredicates(t *testing.T) {
	eng, err := core.New(core.Config{Nodes: 2, Metrics: obs.NewRegistry("")})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := ApplyVerb(eng, nil, "STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatal(err)
	}
	ss := eng.StringServer()
	for _, p := range []string{"p", "po"} {
		if _, err := ss.InternPredicate(p); err != nil {
			t.Fatal(err)
		}
	}
	const free, workers, opsEach = 7, 8, 3
	fillPredicateSpace(t, free, ss)

	type outcome struct {
		emit  bool
		preds []string
		err   error
	}
	results := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				o := outcome{emit: w%2 == 1, preds: []string{fmt.Sprintf("new/%d/%d/a", w, i), fmt.Sprintf("new/%d/%d/b", w, i)}}
				if o.emit {
					// Equal timestamps: concurrent EMITs never regress the stream.
					_, o.err = ApplyVerb(eng, nil, "EMIT", []string{"S"}, fmt.Sprintf("<x> <po> <y> . @10\n<x> <%s> <y> . @10\n<x> <%s> <y> . @10\n", o.preds[0], o.preds[1]))
				} else {
					_, o.err = ApplyVerb(eng, nil, "LOAD", nil, fmt.Sprintf("<x> <p> <y> .\n<x> <%s> <y> .\n<x> <%s> <y> .\n", o.preds[0], o.preds[1]))
				}
				results[w] = append(results[w], o)
			}
		}(w)
	}
	wg.Wait()

	admitted, refused, pending := 0, 0, 0
	for _, rs := range results {
		for _, o := range rs {
			_, aOK := ss.LookupPredicate(o.preds[0])
			_, bOK := ss.LookupPredicate(o.preds[1])
			switch {
			case o.err == nil && aOK && bOK:
				admitted += len(o.preds)
				if o.emit {
					pending += 3
				}
			case o.err != nil && o.err.Error() == "predicate space exhausted" && !aOK && !bOK:
				refused++
			default:
				t.Errorf("op on %v: err = %v, predicates interned %v %v", o.preds, o.err, aOK, bOK)
			}
		}
	}
	if admitted == 0 || refused == 0 {
		t.Errorf("%d predicates admitted, %d ops refused: the race never reached the cap", admitted, refused)
	}
	if got, want := ss.NumPredicates(), int(strserver.MaxPredicateID)-free+admitted; got != want {
		t.Errorf("NumPredicates = %d, the admitted ops account for %d", got, want)
	}
	if got := eng.PendingEmits(); got != pending {
		t.Errorf("%d tuples pending, the admitted EMITs account for %d: an EMIT was half admitted", got, pending)
	}
}

// A transcript whose framing breaks anywhere, or that lists an entity key no
// term has, is refused before its first section applies: the entity it lists
// ahead of the break is not interned.
func TestSnapshotFramingIsCheckedFirst(t *testing.T) {
	d := startSeedCfg(t, nil)
	defer d.close()
	ent := string(rdf.NewIRI("restored").AppendKey(nil))
	head := fmt.Sprintf("WSSNAP 1\nENT %d\n%s\n", len(ent), ent)
	ss := d.eng.StringServer()
	for _, row := range []struct{ tail, want string }{
		{"PRED x\np\n", "bad snapshot header"},         // a length that is not a number
		{"PRED 1 2\np\n", "bad snapshot header"},       // a stray field
		{"PRED -1\np\n", "bad snapshot header"},        // a negative length
		{"CQ Q1 999\nSELECT\n", "bad snapshot header"}, // a blob past the end
		{"ACK id-1 7\nreply\n", "bad snapshot header"}, // a header missing its length
		{"ENT 0\n\n", "empty term key"},                // an empty entity key
		{"ENT 1\nx\n", "malformed term key"},           // a key with no kind byte
	} {
		d.node.applyMu.Lock()
		_, _, _, err := d.node.applySnapshotLocked(head + row.tail)
		d.node.applyMu.Unlock()
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%q: err = %v, want %q", row.tail, err, row.want)
		}
		if _, ok := ss.LookupEntity(rdf.NewIRI("restored")); ok {
			t.Fatalf("%q: the entity ahead of the bad section was interned", row.tail)
		}
	}
}

// Entity keys longer than the string server's arena chunks survive snapshot
// transfer: the restored replica holds the same keys under the same IDs.
func TestSnapshotRoundTripsLongKeys(t *testing.T) {
	donor, restored := startSeedCfg(t, nil), startSeedCfg(t, nil)
	defer donor.close()
	defer restored.close()
	long := strings.Repeat("x", 200<<10)
	body := "<a> <p> \"" + long + "\" .\n<" + long + "> <p> <b> .\n<c> <p> <d> .\n"
	if _, err := ApplyVerb(donor.eng, nil, "LOAD", nil, body); err != nil {
		t.Fatal(err)
	}
	donor.node.applyMu.Lock()
	payload := donor.node.buildSnapshotLocked()
	donor.node.applyMu.Unlock()
	restored.node.applyMu.Lock()
	_, _, _, err := restored.node.applySnapshotLocked(string(payload))
	restored.node.applyMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, got := donor.eng.StringServer().EntityKeys(), restored.eng.StringServer().EntityKeys()
	if !slices.Equal(got, want) {
		t.Fatalf("restored %d entity keys, the donor holds %d (or they differ)", len(got), len(want))
	}
	id, ok := restored.eng.StringServer().LookupEntity(rdf.NewIRI(long))
	if lex, _ := restored.eng.StringServer().Lexical(id); !ok || lex != long {
		t.Fatalf("the long IRI is not found after the restore (%v)", ok)
	}
}

// TestStreamEncodingsAgree: a stream has three encodings — the STREAM verb,
// the §5 log's S record, and a cluster snapshot's STREAM line — and each
// registers the same config, with timing predicates and without.
func TestStreamEncodingsAgree(t *testing.T) {
	donor, restored := startSeedCfg(t, nil), startSeedCfg(t, nil)
	defer restored.close()
	dir := t.TempDir()
	if err := donor.eng.EnableFT(core.FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"S", "100"}, {"G", "50", "ga", "gb"}} {
		if _, err := ApplyVerb(donor.eng, nil, "STREAM", args, ""); err != nil {
			t.Fatal(err)
		}
	}
	want := donor.eng.StreamConfigsOrdered()
	donor.node.applyMu.Lock()
	payload := donor.node.buildSnapshotLocked()
	donor.node.applyMu.Unlock()
	donor.close()

	restored.node.applyMu.Lock()
	_, _, _, err := restored.node.applySnapshotLocked(string(payload))
	restored.node.applyMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := core.Recover(core.Config{Nodes: engineNodes, WorkersPerNode: 2, Metrics: obs.NewRegistry("")}, core.FTConfig{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if len(want) != 2 || len(want[1].TimingPredicates) != 2 {
		t.Fatalf("the STREAM verb registered %+v", want)
	}
	for name, eng := range map[string]*core.Engine{"snapshot": restored.eng, "S record": recovered} {
		if got := eng.StreamConfigsOrdered(); !reflect.DeepEqual(got, want) {
			t.Errorf("from the %s: %+v, the STREAM verb registered %+v", name, got, want)
		}
	}
}
