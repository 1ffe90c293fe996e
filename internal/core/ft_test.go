package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/rdf"
	"repro/internal/stream"
)

func TestFTLogAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableFT(FTConfig{Dir: dir}); err == nil {
		t.Error("double EnableFT accepted")
	}
	emit(t, tweets, 10, "Logan", "po", "T-15")
	emit(t, tweets, 150, "Logan", "po", "T-16")
	e.AdvanceTo(300)

	st, err := e.FTStats()
	if err != nil {
		t.Fatal(err)
	}
	// 3 batches sealed on Tweet_Stream (2 with data + 1 empty) and 3 empty
	// on Like_Stream.
	if st.LoggedTuples != 2 {
		t.Errorf("LoggedTuples = %d, want 2", st.LoggedTuples)
	}
	if st.LogTime <= 0 {
		t.Error("no logging delay recorded")
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.FTStats(); st.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	// Every registration and logged batch is a record in the one log.
	if recs := ftRecords(t, dir); recs["S"] != 2 || int64(recs["B"]) != st.LoggedBatches {
		t.Errorf("log records = %v, want 2 streams and %d batches", recs, st.LoggedBatches)
	}
}

// ftRecords counts the records in dir's fault-tolerance log by kind.
func ftRecords(t *testing.T, dir string) map[string]int {
	t.Helper()
	l, err := oplog.Open(dir, oplog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := map[string]int{}
	if err := l.Range(0, 0, func(_ uint64, rec []byte) error {
		kind, _, _ := strings.Cut(string(rec), " ")
		n[kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestFTRecovery(t *testing.T) {
	dir := t.TempDir()
	cqSrc := `
REGISTER QUERY QR AS
SELECT ?X ?Z FROM Tweet_Stream [RANGE 1s STEP 1s]
WHERE { GRAPH Tweet_Stream { ?X po ?Z } }`

	// First life: run with FT, then "crash" (Close without cleanup).
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterContinuous(cqSrc, nil); err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 100, "Logan", "po", "T-77")
	emit(t, tweets, 150, "T-77", "ht", "sosp17")
	emit(t, tweets, 220, "Erik", "li", "T-77")
	e.AdvanceTo(300)
	e.Close()

	// The directory belongs to the first life now: only Recover may take
	// it over.
	if fresh, _, _ := figure1Engine(t, 2); fresh.EnableFT(FTConfig{Dir: dir}) == nil {
		t.Error("EnableFT accepted a directory holding a previous life's log")
	}

	// Second life: recover from the FT directory.
	var col collector
	re, err := Recover(Config{Nodes: 2}, FTConfig{Dir: dir}, xlab(),
		func(name string) func(*Result, FireInfo) {
			if name == "QR" {
				return col.cb
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// The replayed store answers one-shot queries over absorbed data.
	res, err := re.Query(qsText)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range res.Strings() {
		got[s] = true
	}
	if !got["T-13"] || !got["T-77"] {
		t.Errorf("recovered QS = %v, want T-13 and T-77", got)
	}

	// The continuous query was re-registered and fires on new data.
	src, ok := re.streamOf("Tweet_Stream")
	if !ok {
		t.Fatal("stream not recovered")
	}
	next := src.src.BatchEnd(src.src.SealedTo()) // resume after replay
	if err := src.src.Emit(rdf.Tuple{Triple: rdf.T("Erik", "po", "T-88"), TS: next + 10}); err != nil {
		t.Fatal(err)
	}
	re.AdvanceTo(next + 1000)
	found := false
	for _, r := range col.allRows() {
		if r == "Erik T-88" {
			found = true
		}
	}
	if !found {
		t.Errorf("recovered CQ rows = %v, want to contain 'Erik T-88'", col.allRows())
	}
}

// TestFTRecoveryTruncatedTail crashes mid-append: the log's tail is cut
// in the middle of a record. Recovery must stop at the last complete batch —
// no error, no panic — and everything before the damage must be back.
func TestFTRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 110, "Logan", "po", "T-90")
	e.AdvanceTo(200)
	emit(t, tweets, 250, "Logan", "po", "T-91")
	e.AdvanceTo(300)
	e.Kill()

	// Cut the log mid-way through T-91's record, as a crash during the append
	// would: everything from that point on is lost.
	logPath := filepath.Join(dir, "seg-1.wal")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(data), "T-91")
	if cut < 0 {
		t.Fatalf("log does not mention T-91:\n%s", data)
	}
	if err := os.WriteFile(logPath, data[:cut+2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Recover(Config{Nodes: 2}, FTConfig{Dir: dir}, xlab(), nil)
	if err != nil {
		t.Fatalf("recovery from truncated log failed: %v", err)
	}
	defer re.Close()
	res, err := re.Query(`SELECT ?P WHERE { Logan po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range res.Strings() {
		got[s] = true
	}
	if !got["T-90"] {
		t.Errorf("complete batch lost: %v", got)
	}
	if got["T-91"] {
		t.Errorf("truncated batch partially replayed: %v", got)
	}
	// The recovered engine keeps working: new data lands after the replayed
	// prefix.
	src, ok := re.SourceOf("Tweet_Stream")
	if !ok {
		t.Fatal("stream not recovered")
	}
	next := src.BatchEnd(src.SealedTo()) + 10
	if err := src.Emit(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-92"), TS: next}); err != nil {
		t.Fatal(err)
	}
	re.AdvanceTo(next + 1000)
	res, err = re.Query(`SELECT ?P WHERE { Logan po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Strings() {
		if s == "T-92" {
			found = true
		}
	}
	if !found {
		t.Error("post-recovery data not absorbed")
	}
}

// TestFTQuarantinesBitFlippedRecord flips one bit inside a durably logged
// record. The CRC32C frame must catch it: recovery quarantines the damaged
// record (counted, not replayed — neither the original nor the flipped value
// appears) while every record before it is recovered intact.
func TestFTQuarantinesBitFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 110, "Logan", "po", "T-90")
	e.AdvanceTo(200)
	emit(t, tweets, 250, "Logan", "po", "T-91")
	e.AdvanceTo(300)
	e.Kill()

	logPath := filepath.Join(dir, "seg-1.wal")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(data), "T-91")
	if idx < 0 {
		t.Fatalf("log does not mention T-91:\n%s", data)
	}
	data[idx] ^= 0x02 // "T-91" becomes "V-91": still parseable, wrong bytes
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry("ftcrc_test")
	re, err := Recover(Config{Nodes: 2, Metrics: reg}, FTConfig{Dir: dir}, xlab(), nil)
	if err != nil {
		t.Fatalf("recovery from bit-flipped log failed: %v", err)
	}
	defer re.Close()
	res, err := re.Query(`SELECT ?P WHERE { Logan po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range res.Strings() {
		got[s] = true
	}
	if !got["T-90"] {
		t.Errorf("intact record lost: %v", got)
	}
	if got["T-91"] || got["V-91"] {
		t.Errorf("corrupted record replayed: %v", got)
	}
	if n := reg.Counter(ftQuarantineCounter).Value(); n != 1 {
		t.Errorf("quarantined records = %d, want 1", n)
	}
}

// TestFTDetectsCorruptStreamMetadata flips a bit in the log's first record,
// the first stream registration: every later record replays against it, so
// Recover must fail loudly, count the damage, and leave the directory as it
// found it.
func TestFTDetectsCorruptStreamMetadata(t *testing.T) {
	dir := t.TempDir()
	e, _, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	e.Kill()
	path := filepath.Join(dir, "seg-1.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("Tweet_Stream"))
	if i < 0 {
		t.Fatalf("log does not mention Tweet_Stream:\n%q", data)
	}
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("ftmeta_test")
	if _, err := Recover(Config{Nodes: 2, Metrics: reg}, FTConfig{Dir: dir}, xlab(), nil); err == nil {
		t.Fatal("recovery from a damaged stream record succeeded")
	}
	if n := reg.Counter(ftQuarantineCounter).Value(); n != 1 {
		t.Errorf("quarantined records = %d, want 1", n)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Error("failed recovery modified the log")
	}
}

// A failed append sticks: no later batch is appended behind the hole, and
// Checkpoint reports the failure.
func TestFTFailedAppendSticks(t *testing.T) {
	dir := t.TempDir()
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 10, "Logan", "po", "T-15")
	e.AdvanceTo(100)
	// Pull the directory out from under the log: its next append must open
	// a segment there and cannot.
	e.ft.log.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	emit(t, tweets, 150, "Logan", "po", "T-16")
	e.AdvanceTo(200)

	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint after a failed append succeeded")
	}
	st, _ := e.FTStats()
	if st.Checkpoints != 0 || st.LoggedBatches != 2 {
		t.Errorf("stats = %+v, want no checkpoint and only the 2 batches before the failure", st)
	}
	// A load the log refuses is not applied either: it would not survive.
	if err := e.LoadTriples([]rdf.Triple{rdf.T("Logan", "po", "T-17")}); err == nil {
		t.Error("load after a failed append succeeded")
	}
	e.AdvanceTo(300)
	res, err := e.Query(`SELECT ?P WHERE { Logan po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); slices.Contains(got, "T-17") {
		t.Errorf("refused load is visible: %v", got)
	}
}

// TestFTLoadSurvivesRestart: a load is logged like a registration, so a
// restart recovers it, at the snapshot number it took in the first life. The
// load before any sealed batch is visible at once; the one after batches were
// sealed is visible only from the next stable snapshot, before and after the
// crash alike.
func TestFTLoadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	src, err := e.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	load := func(e *Engine, o string) {
		t.Helper()
		if err := e.LoadTriples([]rdf.Triple{rdf.T("a", "p", o)}); err != nil {
			t.Fatal(err)
		}
	}
	objects := func(e *Engine) string {
		t.Helper()
		res, err := e.Query(`SELECT ?o WHERE { a p ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Strings()
		sort.Strings(got)
		return strings.Join(got, " ")
	}
	load(e, "b")
	emit(t, src, 10, "x", "q", "y")
	e.AdvanceTo(200)
	load(e, "c")
	if got := objects(e); got != "b" {
		t.Fatalf("first life answers %q, want %q", got, "b")
	}
	e.Kill()

	re, err := Recover(Config{Nodes: 2}, FTConfig{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(re.Close)
	if got := objects(re); got != "b" {
		t.Errorf("recovered engine answers %q, want %q", got, "b")
	}
	re.AdvanceTo(300)
	if got := objects(re); got != "b c" {
		t.Errorf("after the next snapshot the recovered engine answers %q, want %q", got, "b c")
	}
	re.Close()
	if recs := ftRecords(t, dir); recs["L"] != 2 {
		t.Errorf("log records = %v, want 2 loads (replay logs none)", recs)
	}
}

// TestFTRecoversLogWithBackupBatches recovers a log as engines wrote it while
// they kept an upstream-backup buffer: its stream record carries the buffer's
// budget, which the engine no longer has. Another stream record carries the
// predicate filter and reorder bound the adaptor no longer has either.
func TestFTRecoversLogWithBackupBatches(t *testing.T) {
	dir := t.TempDir()
	l, err := oplog.Open(dir, oplog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range []string{
		`S {"name":"S","batch_ms":100,"backup_batches":256}`,
		`S {"name":"T","batch_ms":50,"timing_preds":["ga"],"keep_preds":["po"],"max_delay_ms":200}`,
		"B S 1\n<Logan> <po> <T-1> . @10\n",
	} {
		if err := l.Append(uint64(i+1), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	re, err := Recover(Config{Nodes: 2}, FTConfig{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if src, ok := re.SourceOf("S"); !ok || src.Interval() != 100*time.Millisecond || src.SealedTo() != 1 {
		t.Fatalf("recovered stream S = %v, %v", src, ok)
	}
	want := stream.Config{Name: "T", BatchInterval: 50 * time.Millisecond, TimingPredicates: []string{"ga"}}
	if got := re.StreamConfigsOrdered(); len(got) != 2 || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("recovered stream configs = %+v, want T as %+v", got, want)
	}
	res, err := re.Query(`SELECT ?P WHERE { Logan po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Strings(); len(got) != 1 || got[0] != "T-1" {
		t.Errorf("recovered rows = %v, want [T-1]", got)
	}
}

// TestFTThreeKillRecoverCycles kills and recovers an engine three times over
// one directory. Each life appends to the log the earlier lives left, so each
// recovery replays all of them: deliveries must deduplicate by window to a
// fault-free twin's, and the query must be registered — in the engine and in
// the log — exactly once.
func TestFTThreeKillRecoverCycles(t *testing.T) {
	const cqText = `
REGISTER QUERY QK AS
SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms]
WHERE { GRAPH S { ?X po ?Y } }`
	const batches = 10
	run := func(dir string, kills map[int]bool) map[rdf.Timestamp]string {
		var mu sync.Mutex
		windows := map[rdf.Timestamp]string{}
		cb := func(r *Result, f FireInfo) {
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
		e, err := New(Config{Nodes: 2, WorkersPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		if err := e.EnableFT(FTConfig{Dir: dir, CheckpointEveryBatches: 3}); err != nil {
			t.Fatal(err)
		}
		src, err := e.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RegisterContinuous(cqText, cb); err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= batches; b++ {
			for i := 0; i < 4; i++ {
				emit(t, src, rdf.Timestamp((b-1)*100+1+i), fmt.Sprintf("u%d", (b*7+i)%5), "po", fmt.Sprintf("t%d", b*4+i))
			}
			e.AdvanceTo(rdf.Timestamp(b * 100))
			if !kills[b] {
				continue
			}
			e.Kill()
			e, err = Recover(Config{Nodes: 2, WorkersPerNode: 2}, FTConfig{Dir: dir, CheckpointEveryBatches: 3}, nil,
				func(name string) func(*Result, FireInfo) {
					if name == "QK" {
						return cb
					}
					return nil
				})
			if err != nil {
				t.Fatalf("recovery after batch %d: %v", b, err)
			}
			t.Cleanup(e.Close)
			if n := len(e.ContinuousQueries()); n != 1 {
				t.Fatalf("recovery after batch %d registered %d queries, want 1", b, n)
			}
			var ok bool
			if src, ok = e.SourceOf("S"); !ok {
				t.Fatalf("recovery after batch %d lost stream S", b)
			}
		}
		e.AdvanceTo((batches + 1) * 100)
		e.Close()
		return windows
	}
	twin := run(t.TempDir(), nil)
	if len(twin) < batches {
		t.Fatalf("fault-free twin delivered %d windows over %d batches", len(twin), batches)
	}
	dir := t.TempDir()
	got := run(dir, map[int]bool{2: true, 5: true, 8: true})
	if !reflect.DeepEqual(got, twin) {
		t.Errorf("deliveries after three recoveries:\n%v\nfault-free twin:\n%v", got, twin)
	}
	if recs := ftRecords(t, dir); recs["S"] != 1 || recs["Q"] != 1 {
		t.Errorf("log records = %v, want one stream and one query registration", recs)
	}
}

func TestFTAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, tweets, _ := figure1Engine(t, 2)
	if err := e.EnableFT(FTConfig{Dir: dir, CheckpointEveryBatches: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		emit(t, tweets, rdf.Timestamp(i*100+10), "Logan", "po", "T-15")
		e.AdvanceTo(rdf.Timestamp((i + 1) * 100))
	}
	st, _ := e.FTStats()
	if st.Checkpoints < 3 {
		t.Errorf("Checkpoints = %d, want >= 3", st.Checkpoints)
	}
}

func TestFTRequiresDir(t *testing.T) {
	e, _, _ := figure1Engine(t, 1)
	if err := e.EnableFT(FTConfig{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := e.FTStats(); err == nil {
		t.Error("FTStats without FT succeeded")
	}
	if err := e.Checkpoint(); err == nil {
		t.Error("Checkpoint without FT succeeded")
	}
}

func TestFTRecoverMissingDir(t *testing.T) {
	_, err := Recover(Config{Nodes: 1}, FTConfig{Dir: filepath.Join(t.TempDir(), "nope")}, nil, nil)
	if err == nil {
		t.Error("recover from missing dir succeeded")
	}
}

func TestFTStreamsRegisteredAfterEnableAreLogged(t *testing.T) {
	dir := t.TempDir()
	e, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.EnableFT(FTConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterStream(stream.Config{Name: "late", BatchInterval: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// Force the stream metadata to disk via checkpoint and verify recovery
	// re-registers it.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	re, err := Recover(Config{Nodes: 1}, FTConfig{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.streamOf("late"); !ok {
		t.Error("late-registered stream not recovered")
	}
}

func TestEngineClientExplainPath(t *testing.T) {
	e, _, _ := figure1Engine(t, 2)
	out, err := e.Explain(`SELECT ?X WHERE { Logan po ?X }`)
	if err != nil || out == "" {
		t.Fatalf("explain: %v %q", err, out)
	}
}
