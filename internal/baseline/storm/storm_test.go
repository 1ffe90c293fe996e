package storm

import (
	"errors"
	"testing"

	"repro/internal/exec"
	"repro/internal/rdf"
)

func table(vars []string, rows ...[]rdf.ID) *exec.Table {
	return exec.TableOf(vars, rows...)
}

func TestSpoutAndSingleBolt(t *testing.T) {
	src := Spout("src", table([]string{"x"}, []rdf.ID{1}, []rdf.ID{2}))
	double := &Node{
		Name:   "double",
		Inputs: []*Node{src},
		Op: func(in []*exec.Table) (*exec.Table, error) {
			out := &exec.Table{Vars: in[0].Vars}
			for ir := 0; ir < in[0].Len(); ir++ {
				r := in[0].Row(ir)
				out.AppendRow([]rdf.ID{r[0] * 2})
			}
			return out, nil
		},
	}
	for _, v := range []Variant{Storm, Heron} {
		got, err := Run(v, double)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 2 || got.Row(0)[0] != 2 || got.Row(1)[0] != 4 {
			t.Errorf("%v: rows = %v", v, got.Cells)
		}
	}
}

func TestDiamondTopology(t *testing.T) {
	src := Spout("src", table([]string{"x"}, []rdf.ID{1}, []rdf.ID{2}, []rdf.ID{3}))
	left := &Node{Name: "left", Inputs: []*Node{src},
		Op: func(in []*exec.Table) (*exec.Table, error) { return in[0], nil }}
	right := &Node{Name: "right", Inputs: []*Node{src},
		Op: func(in []*exec.Table) (*exec.Table, error) { return in[0], nil }}
	merge := &Node{Name: "merge", Inputs: []*Node{left, right},
		Op: func(in []*exec.Table) (*exec.Table, error) {
			return exec.Concat(in[0].Vars, in), nil
		}}
	got, err := Run(Storm, merge)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 6 {
		t.Errorf("rows = %d, want 6", got.Len())
	}
}

func TestErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	src := Spout("src", table([]string{"x"}, []rdf.ID{1}))
	bad := &Node{Name: "bad", Inputs: []*Node{src},
		Op: func([]*exec.Table) (*exec.Table, error) { return nil, boom }}
	sink := &Node{Name: "sink", Inputs: []*Node{bad},
		Op: func(in []*exec.Table) (*exec.Table, error) { return in[0], nil }}
	if _, err := Run(Heron, sink); err == nil || !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestVariantsProduceSameResult(t *testing.T) {
	// Build a big-ish table so Heron actually batches.
	big := &exec.Table{Vars: []string{"x"}}
	for i := 0; i < 1000; i++ {
		big.AppendRow([]rdf.ID{rdf.ID(i)})
	}
	src := Spout("src", big)
	ident := &Node{Name: "id", Inputs: []*Node{src},
		Op: func(in []*exec.Table) (*exec.Table, error) { return in[0], nil }}
	a, err := Run(Storm, ident)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Heron, ident)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Row(i)[0] != b.Row(i)[0] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestRowsAreCopied(t *testing.T) {
	// Operators own their memory: mutating an input downstream must not
	// corrupt the producer's table.
	orig := table([]string{"x"}, []rdf.ID{1})
	src := Spout("src", orig)
	mut := &Node{Name: "mut", Inputs: []*Node{src},
		Op: func(in []*exec.Table) (*exec.Table, error) {
			in[0].Cells[0] = 99
			return in[0], nil
		}}
	if _, err := Run(Storm, mut); err != nil {
		t.Fatal(err)
	}
	if orig.Row(0)[0] != 1 {
		t.Error("upstream table mutated across the serialization boundary")
	}
}

func TestVariantString(t *testing.T) {
	if Storm.String() != "storm" || Heron.String() != "heron" {
		t.Error("Variant strings wrong")
	}
}
