package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench/citybench"
	"repro/internal/bench/lsbench"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

func smallLS() lsbench.Config {
	return lsbench.Config{Users: 50, FollowsPerUser: 4, InitialPostsPerUser: 2, Hashtags: 8,
		RatePO: 200, RatePOL: 400, RatePH: 100, RatePHL: 100, RateGPS: 200}
}

func TestLSBenchEngineEndToEnd(t *testing.T) {
	e, d, w, err := LSBenchEngine(core.Config{Nodes: 2, WorkersPerNode: 2}, smallLS())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Register all six continuous query classes.
	results := make([]int, 7)
	for n := 1; n <= 6; n++ {
		n := n
		_, err := e.RegisterContinuous(w.QueryL(n, 3), func(r *core.Result, f core.FireInfo) {
			results[n] += f.Rows
		})
		if err != nil {
			t.Fatalf("L%d: %v", n, err)
		}
	}
	if err := d.Run(100*time.Millisecond, 3000); err != nil {
		t.Fatal(err)
	}
	// Non-selective queries over busy streams must produce rows.
	if results[4] == 0 {
		t.Error("L4 produced no rows")
	}
	if results[5] == 0 {
		t.Error("L5 produced no rows")
	}
	if results[6] == 0 {
		t.Error("L6 produced no rows")
	}

	// All one-shot queries execute.
	for n := 1; n <= 6; n++ {
		res, err := e.Query(w.QueryS(n, 3))
		if err != nil {
			t.Fatalf("S%d: %v", n, err)
		}
		_ = res.Len()
	}

	// The stateful property: a one-shot query over posts sees stream data.
	res, err := e.Query(`SELECT ?U ?P WHERE { ?U po ?P }`)
	if err != nil {
		t.Fatal(err)
	}
	initialPosts := 50 * 2
	if res.Len() <= initialPosts {
		t.Errorf("one-shot sees %d posts, want > %d (stream data absorbed)", res.Len(), initialPosts)
	}
}

func TestCityBenchEngineEndToEnd(t *testing.T) {
	e, d, w, err := CityBenchEngine(core.Config{Nodes: 2, WorkersPerNode: 2}, citybench.Config{RateScale: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rows := make([]int, 12)
	for n := 1; n <= 11; n++ {
		n := n
		if _, err := e.RegisterContinuous(w.QueryC(n, 1), func(r *core.Result, f core.FireInfo) {
			rows[n] += f.Rows
		}); err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
	}
	if err := d.Run(time.Second, 10000); err != nil {
		t.Fatal(err)
	}
	// The unconditional stream-only queries must fire with rows.
	if rows[10] == 0 {
		t.Error("C10 produced no rows")
	}
	// The aggregate query produces grouped rows.
	if rows[2] == 0 {
		t.Error("C2 (AVG per road) produced no rows")
	}
}

// TestDriverRecordIsWhatTheSourcesAdmitted checks the Driver's record
// against the engine's own accounting: every recorded tuple of a stream was
// either injected in a sealed batch or is still pending, and nothing else
// was.
func TestDriverRecordIsWhatTheSourcesAdmitted(t *testing.T) {
	e, d, _, err := LSBenchEngine(core.Config{Nodes: 2, WorkersPerNode: 2}, smallLS())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := d.Run(LSBenchStep, 1000); err != nil {
		t.Fatal(err)
	}
	for _, s := range lsbench.Streams() {
		st, _, err := e.InjectionStats(s)
		if err != nil {
			t.Fatal(err)
		}
		admitted := st.TimelessTuples + st.TimingTuples + d.sources[s].PendingLen()
		if got := len(d.All(s)); got != admitted || got == 0 {
			t.Errorf("%s: record holds %d tuples, the source admitted %d", s, got, admitted)
		}
	}
}

// TestDriverWindows drives one stream whose generator stamps a tuple at
// both ends of every step, (from, to], and checks the record and its
// windows: a window is [at − RANGE, at) at both edges, a refused tuple is
// not recorded, and a step back in time adds nothing.
func TestDriverWindows(t *testing.T) {
	e, err := core.New(core.Config{Nodes: 1, WorkersPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ss := e.StringServer()
	tuple := func(ts rdf.Timestamp) strserver.EncodedTuple {
		enc, err := ss.EncodeTuple(rdf.Tuple{Triple: rdf.T("a", "p", fmt.Sprint(ts)), TS: ts})
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	late := false
	gen := func(_ string, from, to rdf.Timestamp) []strserver.EncodedTuple {
		out := []strserver.EncodedTuple{tuple(from + 1), tuple(to)}
		if late {
			out = append(out, tuple(5)) // its batch sealed long ago
		}
		return out
	}
	d, err := NewDriver(e, []StreamSpec{{Name: "S", BatchInterval: 100 * time.Millisecond}}, gen)
	if err != nil {
		t.Fatal(err)
	}
	const text = `SELECT ?o FROM S [RANGE 200ms STEP 100ms] WHERE { GRAPH S { a p ?o } }`
	cq, err := e.RegisterContinuous(text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(100*time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	stamps := func(tuples []strserver.EncodedTuple) []rdf.Timestamp {
		var out []rdf.Timestamp
		for _, tu := range tuples {
			out = append(out, tu.TS)
		}
		return out
	}
	if got := stamps(d.All("S")); len(got) != 20 || got[0] != 1 || got[19] != 1000 {
		t.Fatalf("record = %v, want the 20 tuples 1, 100, 101, …, 1000", got)
	}
	got := stamps(d.Windows(sparql.MustParse(text), 1000)["S"])
	if want := []rdf.Timestamp{800, 801, 900, 901}; !slices.Equal(got, want) {
		t.Errorf("window at 1000 = %v, want %v: [800, 1000) keeps 800 and drops 1000", got, want)
	}
	// The engine cuts the same window.
	res, _, err := cq.ExecuteNow()
	if err != nil {
		t.Fatal(err)
	}
	res.Sort()
	if rows := res.Strings(); !slices.Equal(rows, []string{"800", "801", "900", "901"}) {
		t.Errorf("engine window at 1000 = %v", rows)
	}

	if err := d.StepTo(500); err != nil || d.Now() != 1000 || len(d.All("S")) != 20 {
		t.Errorf("StepTo(500) at 1000: err %v, now %d, %d recorded; want nothing added", err, d.Now(), len(d.All("S")))
	}
	late = true
	if err := d.StepTo(1100); err == nil {
		t.Fatal("a tuple in a sealed batch was admitted")
	}
	if got := stamps(d.All("S")); len(got) != 22 || got[21] != 1100 {
		t.Errorf("record after a refusal = %v, want the two admitted tuples and not the refused one", got[18:])
	}
}

func TestPercentiles(t *testing.T) {
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	if m := Median(lats); m != 51*time.Millisecond {
		t.Errorf("median = %v", m)
	}
	if p := Percentile(lats, 99); p != 100*time.Millisecond {
		t.Errorf("p99 = %v", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]time.Duration{time.Millisecond, 100 * time.Millisecond})
	if got < 9*time.Millisecond || got > 11*time.Millisecond {
		t.Errorf("geomean = %v, want ~10ms", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean not 0")
	}
}

func TestCDF(t *testing.T) {
	lats := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	pts := CDF(lats, 4)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[3][1] != 1.0 || pts[3][0] != 4.0 {
		t.Errorf("last point = %v", pts[3])
	}
	if CDF(nil, 4) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestMsFormat(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "-",
		110 * time.Microsecond:  "0.110",
		1500 * time.Microsecond: "1.50",
		250 * time.Millisecond:  "250",
	}
	for d, want := range cases {
		if got := Ms(d); got != want {
			t.Errorf("Ms(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"Query", "Latency"}}
	tb.Add("L1", "0.13")
	tb.Add("L2-long-name", "0.10")
	s := tb.String()
	if !strings.Contains(s, "L2-long-name") || !strings.Contains(s, "Query") {
		t.Errorf("table = %q", s)
	}
}

func TestMedianOfRuns(t *testing.T) {
	i := 0
	got := MedianOfRuns(5, func() time.Duration {
		i++
		return time.Duration(i) * time.Millisecond
	})
	if got != 3*time.Millisecond {
		t.Errorf("median = %v", got)
	}
}
