package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
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
		{"standalone with ft and load", []string{"-ft", "/d", "-load", "x.nt"}, ""},
		{"seed", []string{"-listen", ":7800"}, ""},
		{"joiner", []string{"-listen", ":7801", "-join", ":7800", "-advertise", "h:7801", "-cluster-heartbeat", "50ms"}, ""},
		{"durable member", []string{"-listen", ":7801", "-join", ":7800", "-data-dir", "/d", "-snapshot-every", "64", "-no-sync"}, ""},
		// The two shapes benchmark/daemon.go starts.
		{"benchmark standalone", []string{"-addr", ":1", "-nodes", "2", "-workers", "2", "-trace-sample", "1", "-metrics-addr", ":2"}, ""},
		{"benchmark cluster", []string{"-addr", ":1", "-nodes", "2", "-workers", "2", "-trace-sample", "0", "-listen", ":3", "-data-dir", "/d", "-snapshot-every", "1024", "-cluster-heartbeat", "1h", "-join", ":4"}, ""},

		{"join without listen", []string{"-join", ":7800"}, "-join requires -listen"},
		{"advertise without listen", []string{"-advertise", "h:1"}, "-advertise requires -listen"},
		{"cluster-heartbeat without listen", []string{"-cluster-heartbeat", "50ms"}, "-cluster-heartbeat requires -listen"},
		{"ft in cluster mode", []string{"-listen", ":7800", "-ft", "/d"}, "-ft cannot be combined with cluster mode"},
		{"load in cluster mode", []string{"-listen", ":7800", "-load", "x.nt"}, "-load cannot be combined with cluster mode"},
		{"data-dir without listen", []string{"-data-dir", "/d"}, "-data-dir is the cluster-mode durability story"},
		{"snapshot-every without data-dir", []string{"-listen", ":7800", "-snapshot-every", "64"}, "-snapshot-every requires -data-dir"},
		{"no-sync without data-dir", []string{"-listen", ":7800", "-no-sync"}, "-no-sync requires -data-dir"},
		{"no-sync standalone", []string{"-no-sync"}, "-no-sync requires -data-dir"},
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

// The in-process failover flags are gone, not deprecated: giving one is a
// usage error like any other unknown flag. The names are spelled in two
// halves so a repo-wide grep for them finds nothing.
func TestRemovedFlagsFailParsing(t *testing.T) {
	for _, f := range []string{"-heartbeat" + "-interval=100ms", "-suspect" + "-after=1", "-dead" + "-after=2"} {
		if _, err := parse(f); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("parse(%s) = %v, want an undefined-flag error", f, err)
		}
	}
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
