package server

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestWriteVerbsConformAcrossModes drives one script of write commands — each
// verb accepted, with and without the id= token, then every way a verb can be
// refused — through a standalone daemon, a cluster's write authority and a
// cluster member, and requires byte-identical status lines from all three:
// the verbs are interpreted by the same code wherever they arrive, and a
// refusal decided on the authority reaches a member's client unchanged. The
// closing query shows no refused command left anything behind in any mode.
// (internal/cluster's fuzz targets are seeded from this script.)
func TestWriteVerbsConformAcrossModes(t *testing.T) {
	flowCfg := core.FlowConfig{MaxPending: 4}
	q1 := []string{"REGISTER QUERY Q1 AS", "SELECT ?X ?Y FROM S [RANGE 100ms STEP 100ms]", "WHERE { GRAPH S { ?X po ?Y } }", "."}
	q2 := []string{"REGISTER QUERY Q2 AS", "SELECT ?X ?Y FROM T [RANGE 100ms STEP 100ms]", "WHERE { GRAPH T { ?X po ?Y } }", "."}
	script := []struct {
		send []string
		want string // prefix of the status line
	}{
		{[]string{"STREAM S 100"}, "+OK stream S"},
		{[]string{"STREAM T 100 ga id=c1"}, "+OK stream T"},
		{[]string{"LOAD", "<a> <p> <b> .", "."}, "+OK loaded 1"},
		{[]string{"LOAD id=c2", "<c> <p> <d> .", "<e> <p> <f> .", "."}, "+OK loaded 2"},
		{append([]string{"REGISTER"}, q1...), "+OK registered Q1"},
		{append([]string{"REGISTER id=c3"}, q2...), "+OK registered Q2"},
		{[]string{"EMIT S", "<a> <po> <b> . @10", "."}, "+OK emitted 1"},
		{[]string{"EMIT S id=c4", "<c> <po> <d> . @20", "<e> <po> <f> . @30", "."}, "+OK emitted 2"},
		{[]string{"ADVANCE 100"}, "+OK now 100"},
		{[]string{"ADVANCE 200 id=c5"}, "+OK now 200"},

		{[]string{"STREAM S"}, "-ERR usage: STREAM <name> <interval_ms> [timingPred ...]"},
		{[]string{"LOAD extra", "<x> <p> <y> .", "."}, "-ERR usage: LOAD"},
		{[]string{"EMIT", "<x> <po> <y> . @300", "."}, "-ERR usage: EMIT <stream>"},
		{[]string{"EMIT S T id=c6", "<x> <po> <y> . @300", "."}, "-ERR usage: EMIT <stream>"},
		{[]string{"ADVANCE"}, "-ERR usage: ADVANCE <ts_ms>"},
		{[]string{"ADVANCE 300 400"}, "-ERR usage: ADVANCE <ts_ms>"},
		{[]string{"REGISTER extra", "SELECT ?X WHERE { ?X p ?Y }", "."}, "-ERR usage: REGISTER"},
		{[]string{"STREAM U 0"}, `-ERR bad interval "0"`},
		{[]string{"STREAM U abc id=c7"}, `-ERR bad interval "abc"`},
		{[]string{"ADVANCE abc"}, `-ERR bad timestamp "abc"`},
		{[]string{"EMIT nope", "<x> <po> <y> . @300", "."}, `-ERR unknown stream "nope"`},
		{[]string{"EMIT S", "<x> <po> <y> . @300", "garbage", "<z> <po> <y> . @310", "."}, "-ERR line 2: "},
		{[]string{"LOAD", "<x> <p> <y> .", "not a triple", "<z> <p> <y> .", "."}, "-ERR line 2: "},
		{[]string{"LOAD", `<x> "p" <y> .`, "."}, "-ERR line 1: predicate: "},
		{[]string{"EMIT S", "<x> <po> <y> . @350", "<z> <po> <y> . @250", "."}, "-ERR stream S: timestamp regression 250 after 350"},
		{[]string{"EMIT S", "<x> <po> <y> . @150", "."}, "-ERR stream S: tuple at 150 arrived after batch 2 was sealed"},
		{[]string{"EMIT S", "<x> <po> <1> . @300", "<x> <po> <2> . @301", "<x> <po> <3> . @302", "<x> <po> <4> . @303", "<x> <po> <5> . @304", "."},
			"-ERR stream S: 5 tuples can never fit the 4-tuple admission buffer"},
		{[]string{"EMIT S", "<g> <po> <h> . @300", "<i> <po> <j> . @301", "<k> <po> <l> . @302", "."}, "+OK emitted 3"},
		{[]string{"EMIT S id=c8", "<x> <po> <y> . @310", "<z> <po> <y> . @311", "."}, "-ERR overload retry-after=100ms: stream S: admission buffer full"},
		{[]string{"REGISTER", "this is not sparql", "."}, "-ERR sparql: "},
		{[]string{"REGISTER", "SELECT ?X WHERE { ?X p ?Y }", "."}, "-ERR core: query is not continuous"},

		{[]string{"ADVANCE 400"}, "+OK now 400"},
	}

	eng, err := core.New(core.Config{Nodes: 2, Metrics: obs.NewRegistry(""), Flow: flowCfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	standalone, standaloneAddr := serve(t, eng)
	// Each cluster column gets its own pair, or the second would replay the
	// script over the first one's state.
	seed := startClusterDaemonFlow(t, "", flowCfg)
	startClusterDaemonFlow(t, seed.tr.Addr(), flowCfg)
	member := startClusterDaemonFlow(t, startClusterDaemonFlow(t, "", flowCfg).tr.Addr(), flowCfg)
	modes := []struct {
		name string
		srv  *Server
		c    *client
	}{
		{"standalone", standalone, dial(t, standaloneAddr)},
		{"seed", seed.srv, dial(t, seed.addr)},
		{"member", member.srv, dial(t, member.addr)},
	}

	for _, step := range script {
		ok := true
		var first string
		var report strings.Builder
		for i, m := range modes {
			m.c.send(step.send...)
			got := m.c.status()
			if i == 0 {
				first = got
			}
			ok = ok && got == first && strings.HasPrefix(got, step.want)
			fmt.Fprintf(&report, "\n  %-10s %q", m.name, got)
		}
		if !ok {
			t.Errorf("%q: want one status line starting %q from all, got%s", step.send[0], step.want, report.String())
		}
	}

	final := make([][]string, len(modes))
	for i, m := range modes {
		for _, cmd := range [][]string{
			{"QUERY", "SELECT ?X ?Y WHERE { ?X p ?Y }", "."},
			{"QUERY", "SELECT ?X ?Y WHERE { ?X po ?Y }", "."},
			{"POLL Q1"},
		} {
			m.c.send(cmd...)
			expectOK(t, m.c.status())
			rows := m.c.rows()
			sort.Strings(rows)
			final[i] = append(final[i], rows...)
		}
		// The stream-buffer shed was counted where the client was told.
		if n := m.srv.cEmitShed.Value(); n != 1 {
			t.Errorf("%s: server_emit_shed_total = %d, want 1", m.name, n)
		}
	}
	// The membership view is the one thing only a cluster daemon answers.
	for i, m := range modes {
		m.c.send("CLUSTER")
		st := m.c.status()
		if i == 0 {
			if st != "-ERR not clustered (single-process daemon)" {
				t.Errorf("standalone CLUSTER = %q", st)
			}
		} else if lines := m.c.rows(); !strings.HasPrefix(st, "+OK") || len(lines) != 4 {
			t.Errorf("%s: CLUSTER = %q %v, want SEQ, EPOCH and one line per rank", m.name, st, lines)
		}
	}
	want := []string{"a b", "c d", "e f",
		"a b", "c d", "e f", "g h", "i j", "k l",
		"@100 a b", "@100 c d", "@100 e f", "@400 g h", "@400 i j", "@400 k l"}
	for i, m := range modes {
		if !reflect.DeepEqual(final[i], want) {
			t.Errorf("%s: final state %v, want exactly the accepted facts %v", m.name, final[i], want)
		}
	}
}
