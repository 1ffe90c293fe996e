package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/bench/lsbench"
	"repro/internal/rdf"
	"repro/internal/strserver"
)

// nominalSeconds is the measured-phase length the frozen round counts below
// were sized for on the 2-vCPU reference host; it is BENCHMARK.json's
// run_seconds. -seconds scales the round counts linearly from here, so the
// same -seconds always means the same work.
const nominalSeconds = 15

// spec is one workload: how big the static graph is, how fast the streams
// run, and how a round interleaves one tick with one-shot probes.
type spec struct {
	name string
	why  string

	users   int // LSBench Users (≈50 static triples per user)
	rateDiv int // streams run at 1/rateDiv of the generator's default rates

	rounds         int  // measured rounds at nominalSeconds
	probesPerRound int  // lead probes per round
	probesFirst    bool // round = [probes, tick] instead of [tick, probes]
	follower       bool // a second connection issues probes until the lead finishes
	cluster        bool // seed + one -join member; the lead talks to the member

	warmTicks  int // set-up warm-up: warmTicks rounds of [tick, warmProbes/warmTicks probes]
	warmProbes int
}

// The three workloads. Static-data size, stream rate and read:write ratio
// vary independently; the window stays at the paper's RANGE 1s STEP 100ms.
// Round counts are frozen: tune them only together with nominalSeconds.
var specs = []*spec{
	{
		name: "stream-standalone",
		why: "one daemon, 50k static triples, streams at 1/4 rate, serial lead: injection, vts gating, delta firing, GC " +
			"do the work while the store grows about 5x, so per-tick cost that scales with store size shows",
		users: 1000, rateDiv: 4,
		rounds: 700, probesPerRound: 4,
		warmTicks: 190, warmProbes: 1900,
	},
	{
		name: "oneshot-standalone",
		why: "one daemon, 100k static triples, streams at 1/8 rate, 16 probes per tick plus a concurrent follower: " +
			"parsing, plan, exec and store reads dominate, and ADVANCE's stripe locks show as reader stalls",
		users: 2000, rateDiv: 8,
		rounds: 520, probesPerRound: 16, probesFirst: true, follower: true,
		warmTicks: 90, warmProbes: 3600,
	},
	{
		name: "mixed-cluster",
		why: "seed + joined member, fsynced oplogs, serial lead on the member: every write is forwarded, sequenced, " +
			"logged, replicated; half the anchored probes hop to the owner: cluster, wire and oplog dominate",
		users: 1000, rateDiv: 8,
		rounds: 520, probesPerRound: 4, cluster: true,
		warmTicks: 75, warmProbes: 1125,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// scaled returns a copy of the spec with its measured rounds scaled to the
// requested measured-phase length (num/den of the frozen count).
func (s *spec) scaled(num, den int) *spec {
	c := *s
	c.rounds = s.rounds * num / den
	if c.rounds < 1 {
		c.rounds = 1
	}
	return &c
}

// hotUsers is the size of the hot start-user set: half of the selective
// probes start there, so a future parse/plan cache shows on that half only.
const hotUsers = 64

type probeClass uint8

const (
	probeHot  probeClass = iota // selective, start user from the hot set
	probeCold                   // selective, start user drawn uniformly
	probeScan                   // S4 over a rotating tag
)

// probe is one one-shot QUERY.
type probe struct {
	text  string
	class probeClass
	user  int // anchor user of a selective probe; -1 for scans
}

// probeGen yields the seeded probe sequence: 3 of 4 selective (S1, S2, S3, S5
// in rotation), 1 of 4 a scan (S4, rotating tag).
type probeGen struct {
	w   *lsbench.Workload
	rng *rand.Rand
	hot []int
	n   int
}

func newProbeGen(w *lsbench.Workload, seed int64) *probeGen {
	rng := rand.New(rand.NewSource(seed))
	return &probeGen{w: w, rng: rng, hot: rng.Perm(w.Users())[:min(hotUsers, w.Users())]}
}

var selectiveS = [...]int{1, 2, 3, 5}

func (g *probeGen) next() probe {
	i := g.n
	g.n++
	if i%4 == 3 {
		return probe{text: g.w.QueryS(4, i/4), class: probeScan, user: -1}
	}
	s := selectiveS[(i-i/4)%len(selectiveS)]
	if g.rng.Intn(2) == 0 {
		u := g.hot[g.rng.Intn(len(g.hot))]
		return probe{text: g.w.QueryS(s, u), class: probeHot, user: u}
	}
	u := g.rng.Intn(g.w.Users())
	return probe{text: g.w.QueryS(s, u), class: probeCold, user: u}
}

// tick is one logical 100 ms step: one EMIT per stream, then ADVANCE to now.
type tick struct {
	now   rdf.Timestamp
	emits [][]strserver.EncodedTuple // parallel to lsbench.Streams()
}

func (t *tick) tuples() int {
	n := 0
	for _, e := range t.emits {
		n += len(e)
	}
	return n
}

// round is one lead iteration: a tick and a fixed number of probes.
type round struct {
	tick   tick
	probes []probe
}

// script is the fixed work of one workload for one seed: the static graph,
// the continuous queries, the warm-up rounds and the measured rounds. It is
// generated before any daemon starts, so the daemons only ever see its lines.
type script struct {
	spec   *spec
	seed   int64
	w      *lsbench.Workload
	blocks []string // the static graph as LOAD bodies
	cqs    []string // L1..L6 texts
	warm   []round
	rounds []round
}

const tickMS = 100

func buildScript(sp *spec, seed int64) *script {
	d := sp.rateDiv
	w := lsbench.Generate(lsbench.Config{
		Seed:    seed*7919 + 1, // never 0: lsbench maps 0 to its own default
		Users:   sp.users,
		RatePO:  1000 / d,
		RatePOL: 8600 / d,
		RatePH:  1000 / d,
		RatePHL: 750 / d,
		RateGPS: 2000 / d,
	}, strserver.New())
	sc := &script{spec: sp, seed: seed, w: w, blocks: staticBlocks(w)}
	startRng := rand.New(rand.NewSource(seed ^ 0x4c51))
	for n := 1; n <= 6; n++ {
		sc.cqs = append(sc.cqs, w.QueryL(n, startRng.Intn(sp.users)))
	}
	probes := newProbeGen(w, seed^0x5eed)
	now := rdf.Timestamp(0)
	gen := func(nProbes int) round {
		var r round
		r.tick.now = now + tickMS
		for _, name := range lsbench.Streams() {
			r.tick.emits = append(r.tick.emits, w.StreamTuples(name, now, now+tickMS))
		}
		now += tickMS
		for i := 0; i < nProbes; i++ {
			r.probes = append(r.probes, probes.next())
		}
		return r
	}
	for i := 0; i < sp.warmTicks; i++ {
		sc.warm = append(sc.warm, gen(sp.warmProbes/sp.warmTicks))
	}
	for i := 0; i < sp.rounds; i++ {
		sc.rounds = append(sc.rounds, gen(sp.probesPerRound))
	}
	return sc
}

// followerProbes is the follower connection's own seeded probe sequence.
func (sc *script) followerProbes() *probeGen {
	return newProbeGen(sc.w, sc.seed^0xf0110)
}

// decode turns one EMIT's encoded tuples back into the terms the client sends.
func (sc *script) decode(enc []strserver.EncodedTuple) []rdf.Tuple {
	out := make([]rdf.Tuple, len(enc))
	for i, e := range enc {
		t, err := sc.w.SS.DecodeTriple(e.EncodedTriple)
		if err != nil {
			panic(err) // the generator interned every id it emitted
		}
		out[i] = rdf.Tuple{Triple: t, TS: e.TS}
	}
	return out
}

// loadBlockTriples is how many static triples one LOAD carries.
const loadBlockTriples = 5000

// staticBlocks renders the static graph as N-Triples LOAD bodies of at most
// loadBlockTriples lines each.
func staticBlocks(w *lsbench.Workload) []string {
	var blocks []string
	var b []byte
	for i, e := range w.Initial {
		t, err := w.SS.DecodeTriple(e)
		if err != nil {
			panic(err) // the generator interned every id it produced
		}
		b = append(b, t.String()...)
		b = append(b, " .\n"...)
		if (i+1)%loadBlockTriples == 0 || i == len(w.Initial)-1 {
			blocks = append(blocks, string(b[:len(b)-1]))
			b = b[:0]
		}
	}
	return blocks
}

// hash digests every line the daemons will receive from the lead, in order.
func (sc *script) hash() string {
	h := sha256.New()
	for _, blk := range sc.blocks {
		fmt.Fprintln(h, blk)
	}
	for _, q := range sc.cqs {
		fmt.Fprintln(h, q)
	}
	for _, rs := range [][]round{sc.warm, sc.rounds} {
		for i := range rs {
			r := &rs[i]
			for si, name := range lsbench.Streams() {
				fmt.Fprintln(h, "EMIT", name)
				for _, tu := range sc.decode(r.tick.emits[si]) {
					fmt.Fprintln(h, tu.String())
				}
			}
			fmt.Fprintln(h, "ADVANCE", int64(r.tick.now))
			for _, p := range r.probes {
				fmt.Fprintln(h, p.text)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
