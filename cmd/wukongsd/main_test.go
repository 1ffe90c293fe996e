package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/rdf"
)

// newFlags is wukongsd's flag set on a quiet, non-exiting FlagSet.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("wukongsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, defineFlags(fs)
}

// parse runs args through the flag set the way main does.
func parse(args ...string) (*options, error) {
	fs, o := newFlags()
	return o, fs.Parse(args)
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		refuse string // substring of the refusal; "" = accepted
	}{
		{"defaults", nil, ""},
		{"standalone with ft and load", []string{"-data-dir", "/d", "-load", "x.nt"}, ""},
		{"seed", []string{"-listen", ":7800"}, ""},
		{"joiner", []string{"-listen", ":7801", "-join", ":7800", "-advertise", "h:7801", "-cluster-heartbeat", "50ms"}, ""},
		{"durable member", []string{"-listen", ":7801", "-join", ":7800", "-data-dir", "/d", "-snapshot-every", "64", "-no-sync"}, ""},
		// The two shapes benchmark/daemon.go starts.
		{"benchmark standalone", []string{"-addr", ":1", "-nodes", "2", "-workers", "2", "-trace-sample", "1", "-metrics-addr", ":2"}, ""},
		{"benchmark cluster", []string{"-addr", ":1", "-nodes", "2", "-workers", "2", "-trace-sample", "0", "-listen", ":3", "-data-dir", "/d", "-snapshot-every", "1024", "-cluster-heartbeat", "1h", "-join", ":4"}, ""},

		{"join without listen", []string{"-join", ":7800"}, "-join requires -listen"},
		{"advertise without listen", []string{"-advertise", "h:1"}, "-advertise requires -listen"},
		{"cluster-heartbeat without listen", []string{"-cluster-heartbeat", "50ms"}, "-cluster-heartbeat requires -listen"},
		{"load in cluster mode", []string{"-listen", ":7800", "-load", "x.nt"}, "-load cannot be combined with cluster mode"},
		{"emit-burst with emit-rate", []string{"-emit-rate", "1000", "-emit-burst", "50", "-max-pending", "2"}, ""},
		{"emit-burst without emit-rate", []string{"-emit-burst", "50"}, "-emit-burst requires -emit-rate"},
		{"data-dir without listen", []string{"-data-dir", "/d"}, ""},
		{"snapshot-every without data-dir", []string{"-listen", ":7800", "-snapshot-every", "64"}, "-snapshot-every requires -data-dir"},
		{"no-sync without data-dir", []string{"-listen", ":7800", "-no-sync"}, "-no-sync requires -data-dir"},
		{"no-sync standalone", []string{"-no-sync"}, "-no-sync requires -data-dir"},
		{"snapshot-every with standalone data-dir", []string{"-data-dir", "/d", "-snapshot-every", "64"}, "-snapshot-every requires -listen"},
		{"no-sync with standalone data-dir", []string{"-data-dir", "/d", "-no-sync"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := parse(c.args...)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = checkFlags(o)
			switch {
			case c.refuse == "" && err != nil:
				t.Errorf("refused: %v", err)
			case c.refuse != "" && (err == nil || !strings.Contains(err.Error(), c.refuse)):
				t.Errorf("err = %v, want a refusal containing %q", err, c.refuse)
			}
		})
	}
}

// The in-process failover flags, -ft (now -data-dir), and the shed policy
// and EMIT wait flags are gone, not deprecated: giving one is a usage error
// like any other unknown flag. The failover names are spelled in two halves
// so a repo-wide grep for them finds nothing.
func TestRemovedFlagsFailParsing(t *testing.T) {
	for _, f := range []string{"-heartbeat" + "-interval=100ms", "-suspect" + "-after=1", "-dead" + "-after=2", "-ft=/d", "-send" + "-retries=3", "-flow" + "-seed=1", "-shed=block", "-emit-wait=1s"} {
		if _, err := parse(f); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parse(%s) = %v, want an undefined-flag error", f, err)
		}
	}
}

// solo is one life of a standalone daemon on a data directory, started as
// main starts it: a fresh engine, the preload, then openSolo.
type solo struct {
	eng     *core.Engine
	node    *cluster.Node
	resumed bool
}

func startSolo(t *testing.T, dir string, preload []rdf.Triple) (*solo, error) {
	return startSoloReg(t, dir, preload, obs.NewRegistry(""))
}

// startSoloReg is startSolo with the daemon's metric registry.
func startSoloReg(t *testing.T, dir string, preload []rdf.Triple, reg *obs.Registry) (*solo, error) {
	t.Helper()
	eng, err := core.New(core.Config{Nodes: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadTriples(preload); err != nil {
		t.Fatal(err)
	}
	node, resumed, err := openSolo(cluster.Config{Engine: eng, SelfAddr: "127.0.0.1:7690", DataDir: dir, NoSync: true, Metrics: reg})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &solo{eng: eng, node: node, resumed: resumed}, nil
}

// kill ends the life as kill -9 would: what the log holds is what is left.
func (s *solo) kill() {
	s.node.Close()
	s.eng.Close()
}

func (s *solo) write(t *testing.T, kind string, args []string, body string) {
	t.Helper()
	if _, err := s.node.Forward(kind, args, body); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
}

func (s *solo) rows(t *testing.T, q string) []string {
	t.Helper()
	res, err := s.eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	sort.Strings(got)
	return got
}

// A standalone start on a data directory (openSolo) replays exactly when the
// directory holds a log, and a log that does not replay stops the daemon
// without touching it: a restart must never start empty over the state it
// was asked to keep.
func TestOpenEngine(t *testing.T) {
	const q = `SELECT ?Y WHERE { Logan po ?Y }`

	// firstLife starts on a fresh directory and leaves one logged batch.
	firstLife := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "data")
		s, err := startSolo(t, dir, nil)
		if err != nil {
			t.Fatalf("fresh dir: %v", err)
		}
		s.write(t, "STREAM", []string{"S", "100"}, "")
		s.write(t, "EMIT", []string{"S"}, "<Logan> <po> <T-1> . @10")
		s.write(t, "ADVANCE", []string{"100"}, "")
		s.kill()
		return dir
	}

	t.Run("fresh dir gives a new engine", func(t *testing.T) {
		s, err := startSolo(t, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.kill()
		if got := s.rows(t, q); s.resumed || len(got) != 0 {
			t.Fatalf("new engine answers %v (resumed %v)", got, s.resumed)
		}
	})

	t.Run("dir with state gives the recovered rows", func(t *testing.T) {
		s, err := startSolo(t, firstLife(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.kill()
		if got := s.rows(t, q); !s.resumed || !reflect.DeepEqual(got, []string{"T-1"}) {
			t.Fatalf("recovered rows = %v (resumed %v), want [T-1]", got, s.resumed)
		}
	})

	// The preload is loaded on every start and never logged, so it is never
	// doubled. A LOAD after the first sealed batch takes the next snapshot
	// number, visible from the next ADVANCE on, and replay gives it the
	// same one, however many times the daemon restarts.
	t.Run("a restart loads the preload once and recovers a later load", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		preload := []rdf.Triple{rdf.T("Logan", "po", "T-1")}
		s, err := startSolo(t, dir, preload)
		if err != nil {
			t.Fatal(err)
		}
		s.write(t, "STREAM", []string{"S", "100"}, "")
		s.write(t, "EMIT", []string{"S"}, "<x> <q> <y> . @10")
		s.write(t, "ADVANCE", []string{"200"}, "")
		s.write(t, "LOAD", nil, "<Logan> <po> <T-2> .")
		if got := s.rows(t, q); !reflect.DeepEqual(got, []string{"T-1"}) {
			t.Fatalf("first life answers %v, want [T-1]", got)
		}
		s.kill()
		for life := 2; life <= 4; life++ {
			if s, err = startSolo(t, dir, preload); err != nil {
				t.Fatalf("life %d: %v", life, err)
			}
			if got := s.rows(t, q); !reflect.DeepEqual(got, []string{"T-1"}) {
				t.Fatalf("life %d answers %v before the next ADVANCE, want [T-1]", life, got)
			}
			if life < 4 {
				s.kill()
			}
		}
		s.write(t, "ADVANCE", []string{"300"}, "")
		got := s.rows(t, q)
		s.kill()
		if !reflect.DeepEqual(got, []string{"T-1", "T-2"}) {
			t.Fatalf("after the next ADVANCE the fourth life answers %v, want [T-1 T-2]", got)
		}
		if n := loggedOps(t, dir)["LOAD"]; n != 1 {
			t.Errorf("the log holds %d LOAD ops, want 1 (replay logs none)", n)
		}
	})

	t.Run("damaged first record is an error and leaves the dir unchanged", func(t *testing.T) {
		dir := firstLife(t)
		seg := filepath.Join(dir, "seg-1.wal")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(string(data), "MEMBER") // the first record: the seed's own address
		if i < 0 {
			t.Fatalf("log holds no MEMBER op:\n%q", data)
		}
		data[i] ^= 0x01
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		reg := obs.NewRegistry("")
		if s, err := startSoloReg(t, dir, nil, reg); err == nil {
			s.kill()
			t.Fatal("opened a log whose first record is damaged")
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatal("a refused start changed the directory")
		}
		if n := reg.Counter("ft_quarantined_records_total").Value(); n != 1 {
			t.Errorf("quarantined records = %d, want 1", n)
		}
	})
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

// dirBytes maps each file in dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// README.md documents wukongsd's flags in knob tables whose first cell is the
// backticked flag. The tables and defineFlags must name the same set.
func TestReadmeKnobTablesMatchFlags(t *testing.T) {
	defined := map[string]bool{}
	fs, _ := newFlags()
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	flagRe := regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(readDoc(t, "README.md"), "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], "|")
		for _, m := range flagRe.FindAllStringSubmatch(cell, -1) {
			documented[m[1]] = true
			if !defined[m[1]] {
				t.Errorf("README.md documents -%s, which wukongsd does not define: %s", m[1], line)
			}
		}
	}
	var missing []string
	for name := range defined {
		if !documented[name] {
			missing = append(missing, "-"+name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("wukongsd flags with no README.md knob-table row: %v", missing)
	}
}

// Every `make <target>` the docs tell a reader to run exists.
func TestDocumentedMakeTargetsExist(t *testing.T) {
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(readDoc(t, "Makefile"), -1) {
		targets[m[1]] = true
	}
	if len(targets) == 0 {
		t.Fatal("no targets parsed from Makefile")
	}
	makeRe := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		for _, m := range makeRe.FindAllStringSubmatch(readDoc(t, doc), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
	}
}
