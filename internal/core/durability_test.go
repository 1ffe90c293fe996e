package core_test

// The engine's §5 fault tolerance, checked through the one durability stack:
// a one-member cluster (a cluster.Node without a transport, as a standalone
// wukongsd with -data-dir runs) that logs every write before it applies it,
// and cluster.Resume, which replays that log into a fresh engine.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/rdf"
)

// life is one incarnation of a node on a data directory.
type life struct {
	eng  *core.Engine
	node *cluster.Node
	reg  *obs.Registry
}

// open starts a life on dir, resuming the log an earlier one left when dir
// holds one. mutate, when set, adjusts the node's config first.
func open(t *testing.T, dir string, onFire func(string, *core.Result, core.FireInfo), mutate func(*cluster.Config)) (*life, error) {
	t.Helper()
	reg := obs.NewRegistry("")
	eng, err := core.New(core.Config{Nodes: 2, WorkersPerNode: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Engine: eng, SelfAddr: "solo", DataDir: dir, NoSync: true, Metrics: reg, OnFire: onFire}
	if mutate != nil {
		mutate(&cfg)
	}
	start := cluster.NewSeed
	if cluster.HasDurableState(dir) {
		start = cluster.Resume
	}
	node, err := start(cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	l := &life{eng: eng, node: node, reg: reg}
	t.Cleanup(l.kill)
	return l, nil
}

func mustOpen(t *testing.T, dir string, onFire func(string, *core.Result, core.FireInfo)) *life {
	t.Helper()
	l, err := open(t, dir, onFire, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// kill ends the life as a crash does: the log holds what it holds.
func (l *life) kill() {
	l.node.Close()
	l.eng.Close()
}

func (l *life) write(t *testing.T, kind string, args []string, body string) string {
	t.Helper()
	reply, err := l.node.Forward(kind, args, body)
	if err != nil {
		t.Fatalf("%s %v: %v", kind, args, err)
	}
	return reply
}

func (l *life) emit(t *testing.T, stream string, ts int, s, p, o string) {
	t.Helper()
	l.write(t, "EMIT", []string{stream}, fmt.Sprintf("<%s> <%s> <%s> . @%d", s, p, o, ts))
}

func (l *life) advance(t *testing.T, ts int) {
	t.Helper()
	l.write(t, "ADVANCE", []string{fmt.Sprint(ts)}, "")
}

// rows answers q, sorted.
func (l *life) rows(t *testing.T, q string) []string {
	t.Helper()
	res, err := l.eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	sort.Strings(got)
	return got
}

// loggedOps counts the ops in dir's log by kind.
func loggedOps(t *testing.T, dir string) map[string]int {
	t.Helper()
	l, err := oplog.Open(dir, oplog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := map[string]int{}
	if err := l.Range(0, 0, func(_ uint64, rec []byte) error {
		head, _, _ := strings.Cut(string(rec), "\n")
		if f := strings.Fields(head); len(f) > 4 {
			n[f[4]]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

const tweetsQuery = `
REGISTER QUERY QR AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`

// tweetsLife starts a fresh life with the stored X-Lab data and the tweet
// stream of the paper's Figure 1.
func tweetsLife(t *testing.T, dir string, onFire func(string, *core.Result, core.FireInfo)) *life {
	t.Helper()
	l := mustOpen(t, dir, onFire)
	l.write(t, "LOAD", nil, "<Logan> <po> <T-13> .\n<Erik> <fo> <Logan> .\n")
	l.write(t, "STREAM", []string{"Tweet_Stream", "100"}, "")
	return l
}

// A crash loses nothing acked: the replayed store answers one-shots over the
// absorbed data, and the replayed continuous query fires on new data.
func TestFTRecovery(t *testing.T) {
	dir := t.TempDir()
	l := tweetsLife(t, dir, nil)
	l.write(t, "REGISTER", nil, tweetsQuery)
	l.emit(t, "Tweet_Stream", 100, "Logan", "po", "T-77")
	l.emit(t, "Tweet_Stream", 150, "T-77", "ht", "sosp17")
	l.emit(t, "Tweet_Stream", 220, "Erik", "li", "T-77")
	l.advance(t, 300)
	l.kill()

	var mu sync.Mutex
	var fired []string
	re := mustOpen(t, dir, func(name string, r *core.Result, _ core.FireInfo) {
		if name == "QR" {
			mu.Lock()
			fired = append(fired, r.Strings()...)
			mu.Unlock()
		}
	})
	if got := re.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !reflect.DeepEqual(got, []string{"T-13", "T-77"}) {
		t.Errorf("recovered rows = %v, want [T-13 T-77]", got)
	}
	re.emit(t, "Tweet_Stream", 310, "Erik", "po", "T-88")
	re.advance(t, 1300)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(fired, "Erik T-88") {
		t.Errorf("recovered CQ rows = %v, want to contain 'Erik T-88'", fired)
	}
}

// tornLife logs two sealed batches, T-90's and then T-91's, and crashes.
// It returns the path of the log segment.
func tornLife(t *testing.T, dir string) string {
	t.Helper()
	l := tweetsLife(t, dir, nil)
	l.emit(t, "Tweet_Stream", 110, "Logan", "po", "T-90")
	l.advance(t, 200)
	l.emit(t, "Tweet_Stream", 250, "Logan", "po", "T-91")
	l.advance(t, 300)
	l.kill()
	return filepath.Join(dir, "seg-1.wal")
}

// TestFTRecoveryTruncatedTail crashes mid-append: the log's tail is cut in
// the middle of a record. Recovery keeps every op before the cut — no error,
// no panic — counts the damage, and the resumed node keeps working.
func TestFTRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	seg := tornLife(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(data), "T-91")
	if cut < 0 {
		t.Fatalf("log does not mention T-91:\n%q", data)
	}
	if err := os.WriteFile(seg, data[:cut+2], 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, nil)
	if got := re.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !reflect.DeepEqual(got, []string{"T-13", "T-90"}) {
		t.Errorf("recovered rows = %v, want [T-13 T-90]: the op before the cut, none after", got)
	}
	if n := re.reg.Counter("ft_quarantined_records_total").Value(); n != 1 {
		t.Errorf("quarantined records = %d, want 1", n)
	}
	re.emit(t, "Tweet_Stream", 210, "Logan", "po", "T-92")
	re.advance(t, 1300)
	if got := re.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !slices.Contains(got, "T-92") {
		t.Errorf("post-recovery data not absorbed: %v", got)
	}
}

// TestFTQuarantinesBitFlippedRecord flips one bit inside a logged op. The
// CRC32C frame catches it: recovery quarantines the damaged op (counted, not
// replayed — neither the original nor the flipped value appears) and keeps
// every op before it.
func TestFTQuarantinesBitFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	seg := tornLife(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), "T-91")
	if i < 0 {
		t.Fatalf("log does not mention T-91:\n%q", data)
	}
	data[i] ^= 0x02 // "T-91" becomes "V-91": still parseable, wrong bytes
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, nil)
	if got := re.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !reflect.DeepEqual(got, []string{"T-13", "T-90"}) {
		t.Errorf("recovered rows = %v, want [T-13 T-90]", got)
	}
	if n := re.reg.Counter("ft_quarantined_records_total").Value(); n != 1 {
		t.Errorf("quarantined records = %d, want 1", n)
	}
}

// TestFTDetectsCorruptStreamMetadata damages the records a stream's data
// replays against. The log's first record is the node's MEMBER op, logged
// before the stream registration and every op after it: a bit flipped there
// must stop the restart loudly, count the damage, and leave the log as it
// found it. A bit flipped in the STREAM op itself quarantines that op and
// everything after it: the resumed node keeps the ops before it, knows no
// Tweet_Stream, and refuses an EMIT to it instead of applying it against
// nothing.
func TestFTDetectsCorruptStreamMetadata(t *testing.T) {
	// damagedLife logs a stream registration and one sealed batch on it,
	// crashes, and flips a bit in the first record that mentions word. It
	// returns the segment's path and its damaged bytes.
	damagedLife := func(t *testing.T, dir, word string) (string, []byte) {
		t.Helper()
		l := tweetsLife(t, dir, nil)
		l.emit(t, "Tweet_Stream", 110, "Logan", "po", "T-90")
		l.advance(t, 200)
		l.kill()
		seg := filepath.Join(dir, "seg-1.wal")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(string(data), word)
		if i < 0 {
			t.Fatalf("log does not mention %s:\n%q", word, data)
		}
		data[i] ^= 0x01
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return seg, data
	}

	t.Run("damaged first record refuses the restart", func(t *testing.T) {
		dir := t.TempDir()
		seg, data := damagedLife(t, dir, "MEMBER")
		reg := obs.NewRegistry("")
		if _, err := open(t, dir, nil, func(c *cluster.Config) { c.Metrics = reg }); err == nil {
			t.Fatal("resume from a damaged first record succeeded")
		}
		if n := reg.Counter("ft_quarantined_records_total").Value(); n != 1 {
			t.Errorf("quarantined records = %d, want 1", n)
		}
		if after, _ := os.ReadFile(seg); string(after) != string(data) {
			t.Error("failed resume modified the log")
		}
	})

	t.Run("damaged stream registration drops the stream", func(t *testing.T) {
		dir := t.TempDir()
		damagedLife(t, dir, "Tweet_Stream")
		re := mustOpen(t, dir, nil)
		if got := re.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !reflect.DeepEqual(got, []string{"T-13"}) {
			t.Errorf("recovered rows = %v, want [T-13]: the LOAD before the damage, no tuple after it", got)
		}
		if n := re.reg.Counter("ft_quarantined_records_total").Value(); n != 1 {
			t.Errorf("quarantined records = %d, want 1", n)
		}
		if reply, err := re.node.Forward("EMIT", []string{"Tweet_Stream"}, "<Logan> <po> <T-91> . @300"); err == nil {
			t.Errorf("EMIT to a stream whose registration was quarantined answered %q", reply)
		}
	})
}

// A failed append refuses its op, applied nowhere: with one op per segment,
// the next op must create a segment file, which fails once the directory is
// gone. The refusal sticks while the log cannot take an op, for every verb,
// and nothing refused becomes visible.
func TestFTFailedAppendSticks(t *testing.T) {
	dir := t.TempDir()
	l, err := open(t, dir, nil, func(c *cluster.Config) { c.SegmentOps = 1 })
	if err != nil {
		t.Fatal(err)
	}
	l.write(t, "STREAM", []string{"S", "100"}, "")
	l.emit(t, "S", 10, "Logan", "po", "T-15")
	l.advance(t, 100)
	applied := l.node.Applied()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	for _, op := range []struct {
		kind string
		args []string
		body string
	}{
		{"EMIT", []string{"S"}, "<Logan> <po> <T-16> . @150"},
		{"LOAD", nil, "<Logan> <po> <T-17> ."},
		{"ADVANCE", []string{"300"}, ""},
	} {
		if reply, err := l.node.Forward(op.kind, op.args, op.body); err == nil {
			t.Errorf("%s after a failed append answered %q", op.kind, reply)
		}
	}
	if got := l.node.Applied(); got != applied {
		t.Errorf("applied moved from %d to %d over refused ops", applied, got)
	}
	if now := l.eng.Now(); now != 100 {
		t.Errorf("the clock moved to %d on a refused ADVANCE", now)
	}
	if got := l.rows(t, `SELECT ?P WHERE { Logan po ?P }`); !reflect.DeepEqual(got, []string{"T-15"}) {
		t.Errorf("rows = %v, want [T-15]: a refused op is visible", got)
	}
	if n := l.eng.PendingEmits(); n != 0 {
		t.Errorf("%d refused tuples pending", n)
	}
}

// TestFTLoadSurvivesRestart: a LOAD is an op like any other, so a restart
// replays it at the snapshot number it took in the first life. The load before
// any sealed batch is visible at once; the one after batches were sealed is
// visible only from the next stable snapshot, before and after the crash
// alike.
func TestFTLoadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, nil)
	const q = `SELECT ?o WHERE { a p ?o }`
	l.write(t, "STREAM", []string{"S", "100"}, "")
	l.write(t, "LOAD", nil, "<a> <p> <b> .")
	l.emit(t, "S", 10, "x", "q", "y")
	l.advance(t, 200)
	l.write(t, "LOAD", nil, "<a> <p> <c> .")
	if got := l.rows(t, q); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("first life answers %v, want [b]", got)
	}
	l.kill()

	re := mustOpen(t, dir, nil)
	if got := re.rows(t, q); !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("resumed node answers %v, want [b]", got)
	}
	re.advance(t, 300)
	if got := re.rows(t, q); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Errorf("after the next snapshot the resumed node answers %v, want [b c]", got)
	}
	re.kill()
	if n := loggedOps(t, dir)["LOAD"]; n != 2 {
		t.Errorf("the log holds %d LOAD ops, want 2 (replay logs none)", n)
	}
}

// A directory with no log is nothing to resume.
func TestFTRecoverMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nope")
	if cluster.HasDurableState(dir) {
		t.Fatal("a missing directory holds durable state")
	}
	eng, err := core.New(core.Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if n, err := cluster.Resume(cluster.Config{Engine: eng, SelfAddr: "solo", DataDir: dir}); err == nil {
		n.Close()
		t.Error("resumed from a missing directory")
	}
}

// A stream registered at any point of a life is an op in the log, so the
// next life has it.
func TestFTStreamsRegisteredAfterEnableAreLogged(t *testing.T) {
	dir := t.TempDir()
	l := tweetsLife(t, dir, nil)
	l.advance(t, 500)
	l.write(t, "STREAM", []string{"late", "100"}, "")
	l.kill()
	re := mustOpen(t, dir, nil)
	if _, ok := re.eng.SourceOf("late"); !ok {
		t.Error("late-registered stream not recovered")
	}
}

// TestFTThreeKillRecoverCycles kills and resumes a node three times over one
// directory. Each life appends to the log the earlier lives left, so each
// resume replays all of them: deliveries must deduplicate by window to a
// fault-free twin's, and the stream, the query and the load must each be in
// the engine and in the log exactly once.
func TestFTThreeKillRecoverCycles(t *testing.T) {
	const cqText = `
REGISTER QUERY QK AS
SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms]
WHERE { GRAPH S { ?X po ?Y } }`
	const batches = 10
	run := func(dir string, kills map[int]bool) map[rdf.Timestamp]string {
		var mu sync.Mutex
		windows := map[rdf.Timestamp]string{}
		onFire := func(name string, r *core.Result, f core.FireInfo) {
			if name != "QK" {
				return
			}
			rows := append([]string(nil), r.Strings()...)
			sort.Strings(rows)
			got := strings.Join(rows, ",")
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := windows[f.At]; ok && prev != got {
				t.Errorf("window %d delivered twice with different rows: %q vs %q", f.At, prev, got)
			}
			windows[f.At] = got
		}
		l := mustOpen(t, dir, onFire)
		l.write(t, "STREAM", []string{"S", "100"}, "")
		l.write(t, "REGISTER", nil, cqText)
		l.write(t, "LOAD", nil, "<u0> <fo> <u1> .")
		for b := 1; b <= batches; b++ {
			for i := 0; i < 4; i++ {
				l.emit(t, "S", (b-1)*100+1+i, fmt.Sprintf("u%d", (b*7+i)%5), "po", fmt.Sprintf("t%d", b*4+i))
			}
			l.advance(t, b*100)
			if !kills[b] {
				continue
			}
			l.kill()
			l = mustOpen(t, dir, onFire)
			if n := len(l.eng.ContinuousQueries()); n != 1 {
				t.Fatalf("resume after batch %d registered %d queries, want 1", b, n)
			}
			if got := l.rows(t, `SELECT ?Y WHERE { u0 fo ?Y }`); !reflect.DeepEqual(got, []string{"u1"}) {
				t.Fatalf("resume after batch %d answers %v for the load, want [u1]", b, got)
			}
		}
		l.advance(t, (batches+1)*100)
		l.kill()
		return windows
	}
	twin := run(t.TempDir(), nil)
	if len(twin) < batches {
		t.Fatalf("fault-free twin delivered %d windows over %d batches", len(twin), batches)
	}
	dir := t.TempDir()
	got := run(dir, map[int]bool{2: true, 5: true, 8: true})
	if !reflect.DeepEqual(got, twin) {
		t.Errorf("deliveries after three resumes:\n%v\nfault-free twin:\n%v", got, twin)
	}
	if ops := loggedOps(t, dir); ops["STREAM"] != 1 || ops["REGISTER"] != 1 || ops["LOAD"] != 1 {
		t.Errorf("log ops = %v, want one stream, one query and one load", ops)
	}
}
