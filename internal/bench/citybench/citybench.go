// Package citybench generates a CityBench-like smart-city workload (Ali,
// Gao & Mileo, ISWC 2015) — the paper's second benchmark (§6.10, Table 9).
//
// The dataset simulates IoT sensor streams from the city of Aarhus: vehicle
// traffic (VT1–2), weather (WT), user location (UL), parking (PK1–2), and
// pollution (PL1–5), over stored sensor metadata (which road a sensor
// observes, which places are near which roads, parking-lot locations).
// Observations carry numeric values, so the C-queries exercise FILTER
// comparisons and aggregation — the parts of C-SPARQL that LSBench does not.
//
// The paper's exact C1–C11 texts are not in the paper body (they reference
// the CityBench repository); the queries here are reconstructions that
// preserve each query's documented stream usage (Table 1) and its
// latency class in Table 9 (e.g. C10/C11 touch no stored data). The default
// rates are the paper's (4–19 tuples/s — Aarhus is small).
package citybench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rdf"
	"repro/internal/strserver"
)

// Predicate IRIs.
const (
	PredCongestion = "co"     // traffic sensor reports congestion level
	PredSpeed      = "sp"     // traffic sensor reports average speed
	PredTemp       = "temp"   // weather station reports temperature
	PredHumidity   = "hum"    // weather station reports humidity
	PredAt         = "at"     // user is at a place (timing)
	PredAvail      = "av"     // parking lot reports free spaces
	PredPollution  = "pm"     // pollution sensor reports particulate level
	PredOnRoad     = "onRoad" // sensor observes a road (stored)
	PredNear       = "near"   // road/lot is near a place (stored)
	PredType       = "ty"
)

// Stream names (Table 1).
var streamNames = []string{"VT1", "VT2", "WT", "UL", "PK1", "PK2", "PL1", "PL2", "PL3", "PL4", "PL5"}

// Streams lists the 11 stream names.
func Streams() []string { return append([]string(nil), streamNames...) }

// Config sizes the workload.
type Config struct {
	Seed     int64
	Roads    int // default 32
	Places   int // default 16
	Sensors  int // traffic sensors, default 64
	Lots     int // parking lots, default 24
	Stations int // weather stations, default 8
	PollS    int // pollution sensors, default 20
	Users    int // default 50

	// RateScale multiplies the paper's default per-stream rates
	// (default 1; the paper notes a megacity would be thousands of times
	// higher, which Fig-13-style sweeps emulate by raising this).
	RateScale int
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.Roads, 32)
	def(&c.Places, 16)
	def(&c.Sensors, 64)
	def(&c.Lots, 24)
	def(&c.Stations, 8)
	def(&c.PollS, 20)
	def(&c.Users, 50)
	def(&c.RateScale, 1)
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Workload is the generated dataset plus stream generators.
type Workload struct {
	Cfg Config
	SS  *strserver.Server

	Initial []strserver.EncodedTriple

	sensors  []rdf.ID // traffic sensors (split between VT1 and VT2)
	stations []rdf.ID
	lots     []rdf.ID // split between PK1 and PK2
	pollSens []rdf.ID // split across PL1–5
	users    []rdf.ID
	places   []rdf.ID
	preds    map[string]rdf.ID
	rngs     map[string]*rand.Rand
	numCache map[int64]rdf.ID
}

// Generate builds the stored sensor metadata deterministically.
func Generate(cfg Config, ss *strserver.Server) *Workload {
	cfg = cfg.withDefaults()
	w := &Workload{
		Cfg:      cfg,
		SS:       ss,
		preds:    make(map[string]rdf.ID),
		rngs:     make(map[string]*rand.Rand),
		numCache: make(map[int64]rdf.ID),
	}
	for i, name := range streamNames {
		w.rngs[name] = rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, p := range []string{PredCongestion, PredSpeed, PredTemp, PredHumidity,
		PredAt, PredAvail, PredPollution, PredOnRoad, PredNear, PredType} {
		id, err := ss.InternPredicate(p)
		if err != nil {
			panic("citybench: the string server has no room for the workload's predicates: " + err.Error())
		}
		w.preds[p] = id
	}

	roads := make([]rdf.ID, cfg.Roads)
	for i := range roads {
		roads[i] = w.ent(fmt.Sprintf("road%d", i))
	}
	w.places = make([]rdf.ID, cfg.Places)
	for i := range w.places {
		w.places[i] = w.ent(fmt.Sprintf("place%d", i))
		// Each place is near a few roads.
		for k := 0; k < 3; k++ {
			w.add(roads[rng.Intn(cfg.Roads)], PredNear, w.places[i])
		}
	}
	w.sensors = make([]rdf.ID, cfg.Sensors)
	sensorType := w.ent("TrafficSensor")
	for i := range w.sensors {
		w.sensors[i] = w.ent(fmt.Sprintf("tsensor%d", i))
		w.add(w.sensors[i], PredType, sensorType)
		w.add(w.sensors[i], PredOnRoad, roads[i%cfg.Roads])
	}
	w.lots = make([]rdf.ID, cfg.Lots)
	lotType := w.ent("ParkingLot")
	for i := range w.lots {
		w.lots[i] = w.ent(fmt.Sprintf("lot%d", i))
		w.add(w.lots[i], PredType, lotType)
		w.add(w.lots[i], PredNear, w.places[i%cfg.Places])
	}
	w.stations = make([]rdf.ID, cfg.Stations)
	for i := range w.stations {
		w.stations[i] = w.ent(fmt.Sprintf("wstation%d", i))
	}
	w.pollSens = make([]rdf.ID, cfg.PollS)
	for i := range w.pollSens {
		w.pollSens[i] = w.ent(fmt.Sprintf("psensor%d", i))
		w.add(w.pollSens[i], PredOnRoad, roads[i%cfg.Roads])
	}
	w.users = make([]rdf.ID, cfg.Users)
	for i := range w.users {
		w.users[i] = w.ent(fmt.Sprintf("cuser%d", i))
	}
	return w
}

func (w *Workload) ent(name string) rdf.ID { return w.SS.InternEntity(rdf.NewIRI(name)) }

func (w *Workload) add(s rdf.ID, pred string, o rdf.ID) {
	w.Initial = append(w.Initial, strserver.EncodedTriple{S: s, P: w.preds[pred], O: o})
}

func (w *Workload) num(v int64) rdf.ID {
	if id, ok := w.numCache[v]; ok {
		return id
	}
	id := w.SS.InternEntity(rdf.NewIntLiteral(v))
	w.numCache[v] = id
	return id
}

// rate returns a stream's tuples/second (paper Table 1 defaults × scale).
func (w *Workload) rate(stream string) int {
	base := map[string]int{
		"VT1": 19, "VT2": 19, "WT": 12, "UL": 7,
		"PK1": 4, "PK2": 4, "PL1": 4, "PL2": 4, "PL3": 4, "PL4": 4, "PL5": 4,
	}[stream]
	return base * w.Cfg.RateScale
}

// TimingPredicates returns a stream's timing-data predicates: user locations
// are timing data (meaningless outside their window); sensor readings are
// absorbed as timeless facts.
func TimingPredicates(stream string) []string {
	if stream == "UL" {
		return []string{PredAt}
	}
	return nil
}

// half splits a slice deterministically by stream parity.
func half[T any](xs []T, second bool) []T {
	mid := len(xs) / 2
	if second {
		return xs[mid:]
	}
	return xs[:mid]
}

// StreamTuples deterministically generates a stream's tuples for (from, to].
func (w *Workload) StreamTuples(stream string, from, to rdf.Timestamp) []strserver.EncodedTuple {
	rate := w.rate(stream)
	if rate <= 0 || to <= from {
		return nil
	}
	rng := w.rngs[stream]
	n := int(int64(to-from) * int64(rate) / 1000)
	if n == 0 {
		return nil
	}
	out := make([]strserver.EncodedTuple, 0, n)
	step := float64(to-from) / float64(n)
	emit := func(i int, s rdf.ID, pred string, o rdf.ID) {
		ts := from + rdf.Timestamp(float64(i)*step) + 1
		if ts > to {
			ts = to
		}
		out = append(out, strserver.EncodedTuple{
			EncodedTriple: strserver.EncodedTriple{S: s, P: w.preds[pred], O: o},
			TS:            ts,
		})
	}
	for i := 0; i < n; i++ {
		switch stream {
		case "VT1":
			s := half(w.sensors, false)
			emit(i, s[rng.Intn(len(s))], PredCongestion, w.num(int64(rng.Intn(100))))
		case "VT2":
			s := half(w.sensors, true)
			emit(i, s[rng.Intn(len(s))], PredSpeed, w.num(int64(rng.Intn(120))))
		case "WT":
			st := w.stations[rng.Intn(len(w.stations))]
			if i%2 == 0 {
				emit(i, st, PredTemp, w.num(int64(rng.Intn(45)-5)))
			} else {
				emit(i, st, PredHumidity, w.num(int64(rng.Intn(100))))
			}
		case "UL":
			emit(i, w.users[rng.Intn(len(w.users))], PredAt, w.places[rng.Intn(len(w.places))])
		case "PK1":
			l := half(w.lots, false)
			emit(i, l[rng.Intn(len(l))], PredAvail, w.num(int64(rng.Intn(50))))
		case "PK2":
			l := half(w.lots, true)
			emit(i, l[rng.Intn(len(l))], PredAvail, w.num(int64(rng.Intn(50))))
		default: // PL1–5
			var idx int
			fmt.Sscanf(stream, "PL%d", &idx)
			per := len(w.pollSens) / 5
			sensors := w.pollSens[(idx-1)*per : idx*per]
			emit(i, sensors[rng.Intn(len(sensors))], PredPollution, w.num(int64(rng.Intn(150))))
		}
	}
	return out
}

// DefaultWindow is the paper's CityBench setting: RANGE 3s STEP 1s.
const DefaultWindow = "[RANGE 3s STEP 1s]"

// QueryC returns continuous query Cn (1–11). `start` selects constants for
// the selective queries.
func (w *Workload) QueryC(n, start int) string {
	place := fmt.Sprintf("place%d", start%w.Cfg.Places)
	user := fmt.Sprintf("cuser%d", start%w.Cfg.Users)
	W := DefaultWindow
	switch n {
	case 1:
		// Congested roads near a place (VT1 + stored + filter).
		return fmt.Sprintf(`REGISTER QUERY C1_%d AS
SELECT ?s ?v
FROM VT1 %s
WHERE { GRAPH VT1 { ?s co ?v } . ?s onRoad ?r . ?r near %s . FILTER (?v > 40) }`, start, W, place)
	case 2:
		// Average speed per road (VT2 + stored + aggregate).
		return fmt.Sprintf(`REGISTER QUERY C2_%d AS
SELECT ?r (AVG(?v) AS ?avg)
FROM VT2 %s
WHERE { GRAPH VT2 { ?s sp ?v } . ?s onRoad ?r }
GROUP BY ?r`, start, W)
	case 3:
		// Slow and congested roads (VT1 + VT2 joined on road).
		return fmt.Sprintf(`REGISTER QUERY C3_%d AS
SELECT ?r ?c ?v
FROM VT1 %s
FROM VT2 %s
WHERE { GRAPH VT1 { ?s1 co ?c } . ?s1 onRoad ?r . GRAPH VT2 { ?s2 sp ?v } . ?s2 onRoad ?r . FILTER (?c > 60 && ?v < 40) }`, start, W, W)
	case 4:
		// Hot weather stations (WT stream + filter).
		return fmt.Sprintf(`REGISTER QUERY C4_%d AS
SELECT ?w ?t
FROM WT %s
WHERE { GRAPH WT { ?w temp ?t } . FILTER (?t > 30) }`, start, W)
	case 5:
		// Icy-and-slow conditions (WT + VT2).
		return fmt.Sprintf(`REGISTER QUERY C5_%d AS
SELECT ?s ?v ?t
FROM WT %s
FROM VT2 %s
WHERE { GRAPH VT2 { ?s sp ?v } . GRAPH WT { ?w temp ?t } . FILTER (?v < 20 && ?t < 0) }`, start, W, W)
	case 6:
		// Free parking near the user (UL + PK1 + stored).
		return fmt.Sprintf(`REGISTER QUERY C6_%d AS
SELECT ?l ?a
FROM UL %s
FROM PK1 %s
WHERE { GRAPH UL { %s at ?p } . ?l near ?p . GRAPH PK1 { ?l av ?a } . FILTER (?a > 0) }`, start, W, W, user)
	case 7:
		// Any lot with many free spaces (PK1 + PK2 + stored type check).
		return fmt.Sprintf(`REGISTER QUERY C7_%d AS
SELECT ?l ?a
FROM PK1 %s
FROM PK2 %s
WHERE { GRAPH PK1 { ?l av ?a } . ?l ty ParkingLot . FILTER (?a > 30) }`, start, W, W)
	case 8:
		// Traffic near parking places (VT2 + PK2 + stored).
		return fmt.Sprintf(`REGISTER QUERY C8_%d AS
SELECT ?l ?v
FROM VT2 %s
FROM PK2 %s
WHERE { GRAPH PK2 { ?l av ?a } . ?l near ?p . ?r near ?p . GRAPH VT2 { ?s sp ?v } . ?s onRoad ?r . FILTER (?a > 0) }`, start, W, W)
	case 9:
		// Max availability per lot (PK1 + PK2 + aggregate).
		return fmt.Sprintf(`REGISTER QUERY C9_%d AS
SELECT ?l (MAX(?a) AS ?m)
FROM PK1 %s
FROM PK2 %s
WHERE { GRAPH PK1 { ?l av ?a } . ?l ty ParkingLot }
GROUP BY ?l`, start, W, W)
	case 10:
		// User locations (UL only; no stored data — Table 9 "-").
		return fmt.Sprintf(`REGISTER QUERY C10_%d AS
SELECT ?u ?p
FROM UL %s
WHERE { GRAPH UL { ?u at ?p } }`, start, W)
	case 11:
		// High pollution readings (PL1 only; no stored data).
		return fmt.Sprintf(`REGISTER QUERY C11_%d AS
SELECT ?s ?v
FROM PL1 %s
WHERE { GRAPH PL1 { ?s pm ?v } . FILTER (?v > 80) }`, start, W)
	default:
		panic(fmt.Sprintf("citybench: no such query C%d", n))
	}
}

// QueryStreams returns the streams query Cn consumes.
func QueryStreams(n int) []string {
	switch n {
	case 1:
		return []string{"VT1"}
	case 2:
		return []string{"VT2"}
	case 3:
		return []string{"VT1", "VT2"}
	case 4:
		return []string{"WT"}
	case 5:
		return []string{"WT", "VT2"}
	case 6:
		return []string{"UL", "PK1"}
	case 7:
		return []string{"PK1", "PK2"}
	case 8:
		return []string{"VT2", "PK2"}
	case 9:
		return []string{"PK1", "PK2"}
	case 10:
		return []string{"UL"}
	case 11:
		return []string{"PL1"}
	default:
		panic(fmt.Sprintf("citybench: no such query C%d", n))
	}
}

// StreamSpec mirrors stream.Config (see lsbench.StreamSpec).
type StreamSpec struct {
	Name          string
	BatchInterval time.Duration
	TimingPreds   []string
}

// StreamConfigs returns engine stream configurations (1 s batches: windows
// are 3 s RANGE, 1 s STEP).
func StreamConfigs() []StreamSpec {
	var out []StreamSpec
	for _, name := range streamNames {
		out = append(out, StreamSpec{
			Name:          name,
			BatchInterval: time.Second,
			TimingPreds:   TimingPredicates(name),
		})
	}
	return out
}
