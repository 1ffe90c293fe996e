package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline/composite"
	"repro/internal/baseline/relstream"
	"repro/internal/baseline/storm"
	"repro/internal/bench/harness"
	"repro/internal/bench/lsbench"
	"repro/internal/exec"
	"repro/internal/fabric"
	"repro/internal/sparql"
	"repro/internal/strserver"
)

// TestAllExperimentsRun executes every experiment at quick scale: the point
// is functional coverage (every table/figure can be produced), not numbers.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			if r.ID != id {
				t.Errorf("report ID = %q", r.ID)
			}
			if len(r.Table.Rows) == 0 {
				t.Error("empty table")
			}
			if r.String() == "" {
				t.Error("empty report")
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", QuickOptions()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsCoverRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Errorf("IDs = %d entries, Registry = %d", len(ids), len(Registry))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate ID %s", id)
		}
		seen[id] = true
		if _, ok := Registry[id]; !ok {
			t.Errorf("ID %s not in registry", id)
		}
	}
}

// msValue parses a harness.Ms cell back to a duration for shape checks.
func msValue(t *testing.T, cell string) time.Duration {
	t.Helper()
	if cell == "-" || cell == "x" {
		return 0
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad ms cell %q: %v", cell, err)
	}
	return time.Duration(v * float64(time.Millisecond))
}

// TestTable2Shape verifies the headline result at quick scale: Wukong+S
// beats the composite design, which beats the CSPARQL engine (geometric
// means over L1–L6).
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check needs a non-trivial run")
	}
	// The structural gaps (graph exploration vs table scans, integrated vs
	// composite) need realistic data volume and network latency to show.
	o := Options{Runs: 5, Scale: 1, Nodes: 1, LatencyMode: fabric.Spin}
	r, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	geo := geoRow(t, r)
	ws := msValue(t, geo[1])
	comp := msValue(t, geo[2])
	csq := msValue(t, geo[5])
	if !(ws < comp && comp < csq) {
		t.Errorf("shape violated: Wukong+S=%v Storm+Wukong=%v CSPARQL=%v", ws, comp, csq)
	}
}

// geoRow returns the cells of a report's Geo.M row.
func geoRow(t *testing.T, r *Report) []string {
	t.Helper()
	for _, row := range r.Table.Rows {
		if row[0] == "Geo.M" {
			return row
		}
	}
	t.Fatalf("no Geo.M row:\n%s", r.Table)
	return nil
}

// TestTable5Shape checks the RDMA impact study at quick scale: without
// one-sided reads every remote access is a TCP round trip and every query
// runs fork-join, so the Non-RDMA geometric mean over L1–L6 is above the
// RDMA one.
func TestTable5Shape(t *testing.T) {
	o := QuickOptions()
	o.Runs = 5
	o.LatencyMode = fabric.Spin
	r, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	geo := geoRow(t, r)
	rdma, non := msValue(t, geo[1]), msValue(t, geo[2])
	if !(non > rdma) {
		t.Errorf("shape violated: Non-RDMA geo-mean %v not above RDMA %v\n%s", non, rdma, r.Table)
	}
}

// fig12Margin is how much faster Group II must run on 8 nodes than on 2.
// The paper reports 2.8–3.2×; at scale 1 this reproduction measures about
// 2× on the Group II geometric mean, and 1.5× leaves room for a noisy host.
const fig12Margin = 1.5

// TestFig12Shape checks the node-scalability study: Group II (L4–L6), whose
// windows are large enough to parallelize, is faster at 8 nodes than at 2 by
// fig12Margin on its geometric mean. Group I is µs-level and not checked.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape check needs a non-trivial run")
	}
	o := Options{Runs: 10, Scale: 1, LatencyMode: fabric.Spin}
	r, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Query, 2, 4, 6, 8 nodes; rows L1..L6.
	groupII := func(col int) time.Duration {
		var lats []time.Duration
		for _, row := range r.Table.Rows[3:6] {
			lats = append(lats, msValue(t, row[col]))
		}
		return harness.GeoMean(lats)
	}
	two, eight := groupII(1), groupII(4)
	if float64(two) < fig12Margin*float64(eight) {
		t.Errorf("shape violated: Group II geo-mean %v on 2 nodes vs %v on 8 (want ≥ %.1f× faster)\n%s",
			two, eight, fig12Margin, r.Table)
	}
}

// TestTable4StructuredStreamingUnsupported checks the Table 4 "x" cells.
func TestTable4StructuredStreamingUnsupported(t *testing.T) {
	o := QuickOptions()
	r, err := Table4(o)
	if err != nil {
		t.Fatal(err)
	}
	xCount := 0
	for _, row := range r.Table.Rows {
		if len(row) >= 5 && row[4] == "x" {
			xCount++
		}
	}
	// L3, L5, L6 join two streams; L4 joins one stream with itself but
	// stays within a single stream scope, so at least 3 cells are x.
	if xCount < 3 {
		t.Errorf("only %d unsupported cells:\n%s", xCount, r.Table)
	}
}

// TestFig4CrossSystemCost checks that the composite breakdown attributes a
// visible share to the cross-system boundary.
func TestFig4CrossSystemCost(t *testing.T) {
	o := QuickOptions()
	r, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Table.Rows {
		cc, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatalf("bad CC cell %q", row[5])
		}
		if cc <= 0 {
			t.Errorf("plan %s has no cross-system cost", row[0])
		}
	}
}

// tableRows indexes a report's rows by their first cell.
func tableRows(r *Report) map[string][]string {
	rows := map[string][]string{}
	for _, row := range r.Table.Rows {
		rows[row[0]] = row
	}
	return rows
}

// floatCell parses a numeric report cell.
func floatCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad numeric cell %q: %v", cell, err)
	}
	return v
}

// TestTable6Shape checks the injection-cost study at quick scale: the
// timing-only GPS stream adds no span to the stream index, and each
// stream's per-batch injection plus indexing stays at least 10× below its
// 100 ms batch interval.
func TestTable6Shape(t *testing.T) {
	r, err := Table6(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(r)
	// Columns: Stream, Rate, Injection, Indexing, Total, Spans/batch.
	gps, ok := rows[lsbench.StreamGPS]
	if !ok {
		t.Fatalf("no GPS row:\n%s", r.Table)
	}
	if gps[5] != "0" {
		t.Errorf("GPS indexes %s spans per batch, want 0\n%s", gps[5], r.Table)
	}
	for _, s := range lsbench.Streams() {
		row, ok := rows[s]
		if !ok {
			t.Fatalf("no %s row:\n%s", s, r.Table)
		}
		if total := msValue(t, row[4]); 10*total > 100*time.Millisecond {
			t.Errorf("%s costs %v per batch, want ≪ the 100ms interval\n%s", s, total, r.Table)
		}
	}
}

// TestTable7Shape checks the memory study at quick scale: GPS has no stream
// index, the index is smaller than the raw stream data, and the like stream
// PO-L amortizes its index better than the post stream PO (many likes per
// batch hit the same hot posts).
func TestTable7Shape(t *testing.T) {
	r, err := Table7(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(r)
	// Columns: Stream, Data(KB/min), Index(KB/min), Ratio.
	ratio := func(s string) float64 {
		row, ok := rows[s]
		if !ok {
			t.Fatalf("no %s row:\n%s", s, r.Table)
		}
		return floatCell(t, row[2]) / floatCell(t, row[1])
	}
	if gps := floatCell(t, rows[lsbench.StreamGPS][2]); gps != 0 {
		t.Errorf("GPS index = %.1f KB/min, want 0\n%s", gps, r.Table)
	}
	if total := ratio("Total"); total >= 1 {
		t.Errorf("index/raw = %.2f overall, want < 1\n%s", total, r.Table)
	}
	if pol, po := ratio(lsbench.StreamPOL), ratio(lsbench.StreamPO); pol >= po {
		t.Errorf("PO-L index/raw %.2f not below PO's %.2f\n%s", pol, po, r.Table)
	}
}

// TestSystemsAgree checks that the paper's comparisons compare equal work:
// at quick scale every baseline answers each of L1–L6 and C1–C11 with the
// rows Wukong+S's ExecuteNow answers, compared as sorted rows rendered
// through the one string server the experiment's env shares. A Structured
// Streaming refusal (a stream-stream join, Table 4's "x") is the only cell
// skipped. Every L query must have rows, so the Group I cells do not agree
// on nothing.
func TestSystemsAgree(t *testing.T) {
	o := QuickOptions()
	ls, err := newLSEnv(o, engineConfig(o, o.Nodes), lsConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	systemsAgree(t, ls, "L", o.Nodes)
	city, err := newCityEnv(o)
	if err != nil {
		t.Fatal(err)
	}
	systemsAgree(t, city, "C", 1)
}

// systemsAgree compares every baseline over env with Wukong+S, query by
// query.
func systemsAgree(t *testing.T, env *env, prefix string, nodes int) {
	t.Helper()
	ss := env.e.StringServer()
	want := make([][]string, len(env.cqs))
	for i, cq := range env.cqs {
		res, _, err := cq.ExecuteNow()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderRows(ss, res.Raw())
	}
	env.e.Close()

	type system struct {
		name string
		run  func(q *sparql.Query) (*exec.ResultSet, error)
	}
	var systems []system
	for _, cfg := range []composite.Config{
		{Variant: storm.Storm, PlanMode: composite.Interleaved},
		{Variant: storm.Storm, PlanMode: composite.StreamFirst},
		{Variant: storm.Heron, PlanMode: composite.Interleaved},
	} {
		sys := env.newComposite(cfg, nodes)
		defer sys.Close()
		systems = append(systems, system{cfg.Variant.String() + "+Wukong/" + cfg.PlanMode.String(),
			func(q *sparql.Query) (*exec.ResultSet, error) {
				rs, _, err := sys.ExecuteContinuous(q, env.windows(q), env.d.Now())
				return rs, err
			}})
	}
	csq := env.newCSPARQL()
	systems = append(systems, system{"CSPARQL-engine", func(q *sparql.Query) (*exec.ResultSet, error) {
		rs, _, err := csq.ExecuteContinuous(q, env.windows(q), env.d.Now())
		return rs, err
	}})
	for _, mode := range []relstream.Mode{relstream.SparkStreaming, relstream.StructuredStreaming} {
		sys := env.newRelstream(mode)
		systems = append(systems, system{mode.String(), func(q *sparql.Query) (*exec.ResultSet, error) {
			rs, _, err := sys.ExecuteContinuous(q, env.windows(q), env.d.Now())
			return rs, err
		}})
	}
	wext := env.newWukongExt(nodes)
	defer wext.Close()
	systems = append(systems, system{"Wukong/Ext", func(q *sparql.Query) (*exec.ResultSet, error) {
		rs, _, err := wext.ExecuteContinuous(q, env.d.Now())
		return rs, err
	}})

	for i, q := range env.qs {
		name := fmt.Sprintf("%s%d", prefix, i+1)
		if prefix == "L" && len(want[i]) == 0 {
			t.Errorf("%s: Wukong+S answers no rows; the comparison would time an empty result", name)
		}
		for _, sys := range systems {
			rs, err := sys.run(q)
			if errors.Is(err, relstream.ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Errorf("%s on %s: %v", name, sys.name, err)
				continue
			}
			if got := renderRows(ss, rs); !slices.Equal(got, want[i]) {
				t.Errorf("%s: %s answers %d rows, Wukong+S %d\n%s", name, sys.name, len(got), len(want[i]),
					rowDiff(got, want[i]))
			}
		}
		t.Logf("%s: %d rows", name, len(want[i]))
	}
}

// renderRows renders a result set's rows through ss, sorted: one rendering
// for every system's answer.
func renderRows(ss *strserver.Server, rs *exec.ResultSet) []string {
	rows := make([]string, rs.Len())
	for i := range rows {
		cells := make([]string, len(rs.Vars))
		for j := range cells {
			v := rs.Cell(i, j)
			if v.IsNum {
				cells[j] = strconv.FormatFloat(v.Num, 'g', 12, 64)
			} else {
				cells[j], _ = ss.Lexical(v.ID)
			}
		}
		rows[i] = strings.Join(cells, " ")
	}
	sort.Strings(rows)
	return rows
}

// rowDiff lists up to five rows each side has and the other lacks.
func rowDiff(got, want []string) string {
	count := map[string]int{}
	for _, r := range want {
		count[r]++
	}
	for _, r := range got {
		count[r]--
	}
	var extra, missing []string
	for r, n := range count {
		for ; n < 0 && len(extra) < 5; n++ {
			extra = append(extra, r)
		}
		for ; n > 0 && len(missing) < 5; n-- {
			missing = append(missing, r)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	return fmt.Sprintf("extra: %q\nmissing: %q", extra, missing)
}

// table9Margin is how far below Storm+Wukong's geometric mean over the
// store-touching C queries Wukong+S's must be, and how far above
// Storm+Wukong's overall geometric mean Spark Streaming's must be.
const table9Margin = 2

// TestTable9Shape checks the CityBench comparison at quick scale under
// spin-injected latency, on equal work (TestSystemsAgree): on the C
// queries that reach the store, Wukong+S's geometric mean is table9Margin×
// below Storm+Wukong's, and Spark Streaming is the slowest system.
func TestTable9Shape(t *testing.T) {
	o := QuickOptions()
	o.Runs = 5
	o.LatencyMode = fabric.Spin
	r, err := Table9(o)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Query, Wukong+S, Storm+Wukong, (Storm), (Wukong), SparkStreaming.
	var ws, comp []time.Duration
	for _, row := range r.Table.Rows {
		if row[0] == "Geo.M" || row[4] == "-" {
			continue // stream-only queries never reach the store
		}
		ws = append(ws, msValue(t, row[1]))
		comp = append(comp, msValue(t, row[2]))
	}
	if len(ws) == 0 {
		t.Fatalf("no store-touching query:\n%s", r.Table)
	}
	if w, c := harness.GeoMean(ws), harness.GeoMean(comp); float64(c) < table9Margin*float64(w) {
		t.Errorf("store-touching geo-mean: Wukong+S %v vs Storm+Wukong %v, want ≥ %d× below\n%s", w, c, table9Margin, r.Table)
	}
	geo := geoRow(t, r)
	w, c, spark := msValue(t, geo[1]), msValue(t, geo[2]), msValue(t, geo[5])
	if float64(spark) < table9Margin*float64(max(w, c)) {
		t.Errorf("Spark Streaming geo-mean %v not the slowest by %d× (Wukong+S %v, Storm+Wukong %v)\n%s", spark, table9Margin, w, c, r.Table)
	}
}
