package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/lsbench"
	"repro/internal/client"
	"repro/internal/rdf"
)

// env is what every set-up shares: the built daemon, a scratch directory
// inside the checkout for data dirs, and where the traced run writes spans.
type env struct {
	bin     string
	workDir string
	outDir  string
	yard    *yardstick // the host-speed reference server, shared by every set-up
}

// span is one client-observed operation of the traced run.
type span struct {
	Name   string `json:"name"`
	Conn   string `json:"conn"`   // "lead" or "follower"
	Round  int    `json:"round"`  // parent round id (-1 for follower ops)
	Req    int    `json:"req"`    // request id, unique per connection
	Start  int64  `json:"start"`  // ns since the measured phase began
	End    int64  `json:"end"`    // ns since the measured phase began
	Failed bool   `json:"failed"` // the op returned an error
}

// recorder collects one connection's samples during the measured phase.
type recorder struct {
	conn string

	emit, advance, poll []time.Duration
	fresh, tick         []time.Duration
	hot, cold, scan     []time.Duration
	local, forwarded    []time.Duration // selective probes by owner (cluster only)

	attempted, failed int
	selFailed         int // selective probes that returned an error: sub-ms misses
	stalls, timeouts  int
	rows              int64
	errs              []string // first five distinct error strings

	traced bool
	epoch  time.Time
	spans  []span
	req    int
}

const (
	stallThreshold = time.Second
	// wireCallTimeout is wire.TCPConfig's default CallTimeout: an op that
	// took this long sat out one lost forwarded call.
	wireCallTimeout = 5 * time.Second
)

// op accounts for one finished operation.
func (r *recorder) op(name string, round int, start time.Time, d time.Duration, err error) {
	r.attempted++
	if d >= stallThreshold {
		r.stalls++
	}
	if d >= wireCallTimeout {
		r.timeouts++
	}
	if err != nil {
		r.fail(err.Error())
	}
	r.span(name, round, start, d, err)
}

// span keeps one client-side span when the run is traced.
func (r *recorder) span(name string, round int, start time.Time, d time.Duration, err error) {
	if !r.traced {
		return
	}
	r.req++
	s := start.Sub(r.epoch).Nanoseconds()
	r.spans = append(r.spans, span{Name: name, Conn: r.conn, Round: round, Req: r.req,
		Start: s, End: s + d.Nanoseconds(), Failed: err != nil})
}

func (r *recorder) fail(msg string) {
	r.failed++
	for _, e := range r.errs {
		if e == msg {
			return
		}
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// probeCheck is a lead probe kept for the reference check.
type probeCheck struct {
	ticks int // ticks acked before the probe was sent
	text  string
	rows  []string
}

// pollCheck is one tick's POLL rows of one continuous query.
type pollCheck struct {
	ticks int
	cq    int
	at    rdf.Timestamp
	rows  []string
}

// session is one set-up: running daemons, the lead connection, registered
// streams and queries, warm-up done.
type session struct {
	sc      *script
	traced  bool
	daemons []*daemon
	target  string // the daemon both connections talk to
	lead    *client.Client
	cqNames []string
	dir     string

	setupS   float64
	loadKTPS float64 // static LOAD throughput, ktriples/s

	ticksDone  int         // ticks acked so far, warm-up included
	writeFail  int         // first tick index (0-based) with a failed write, or -1
	owner      map[int]int // start user → owning rank (cluster only)
	memberRank int

	probeChecks []probeCheck
	pollChecks  []pollCheck
	leadProbes  int

	yard      *yardstick // read once per lead round, warm-up included
	setupRawS float64    // set-up time as measured, yardstick slices excluded
}

func (s *session) close() {
	if s.lead != nil {
		s.lead.Close()
	}
	for _, d := range s.daemons {
		d.kill()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

var setupSeq atomic.Int64

// setUp starts the workload's daemons, loads the static graph, registers
// streams and queries and runs the fixed warm-up. setup_s spans the first
// daemon's exec to the end of warm-up.
func setUp(e env, sc *script, traced bool) (s *session, err error) {
	s = &session{sc: sc, traced: traced, writeFail: -1, yard: e.yard}
	s.dir = filepath.Join(e.workDir, fmt.Sprintf("run-%d-%d", os.Getpid(), setupSeq.Add(1)))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(s.dir) })
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if _, err := s.yard.take(); err != nil {
		return s, err
	}

	start := time.Now()
	seed, err := spawn(e.bin, daemonOpts{rank: 0, cluster: sc.spec.cluster,
		dataDir: filepath.Join(s.dir, "d0"), traced: traced})
	if err != nil {
		return s, err
	}
	s.daemons = append(s.daemons, seed)
	s.target = seed.addr
	if sc.spec.cluster {
		m, err := spawn(e.bin, daemonOpts{rank: 1, cluster: true, joinWire: seed.wire,
			dataDir: filepath.Join(s.dir, "d1"), traced: traced})
		if err != nil {
			return s, err
		}
		s.daemons = append(s.daemons, m)
		s.target = m.addr
		s.memberRank = 1
	}
	if s.lead, err = client.Dial(s.target); err != nil {
		return s, err
	}
	loadStart := time.Now()
	for _, blk := range sc.blocks {
		if _, err := s.lead.Load(blk); err != nil {
			return s, fmt.Errorf("LOAD: %w", err)
		}
	}
	s.loadKTPS = float64(len(sc.w.Initial)) / 1000 / time.Since(loadStart).Seconds()
	for _, st := range lsbench.StreamConfigs() {
		if err := s.lead.Stream(st.Name, st.BatchInterval, st.TimingPreds...); err != nil {
			return s, fmt.Errorf("STREAM %s: %w", st.Name, err)
		}
	}
	for _, text := range sc.cqs {
		name, err := s.lead.Register(text)
		if err != nil {
			return s, fmt.Errorf("REGISTER: %w", err)
		}
		s.cqNames = append(s.cqNames, name)
	}
	warm := &recorder{conn: "lead"}
	s.runLead(sc.warm, warm, time.Time{}, false)
	if warm.failed > 0 {
		return s, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, warm.attempted, strings.Join(warm.errs, "; "))
	}
	wall := time.Since(start)
	yard, err := s.yard.take()
	if err != nil {
		return s, err
	}
	// The yardstick's own slices are not set-up work; what is left is
	// scaled to reference speed by the wall-clock factor they measured.
	s.setupRawS = (wall - yard.wall).Seconds()
	s.setupS = s.setupRawS / yard.wallFactor()
	return s, nil
}

// lookupOwners asks the member which rank owns each user (HOME), so probes
// can be split into locally served and forwarded. Outside every timed section.
func (s *session) lookupOwners() error {
	c, err := net.DialTimeout("tcp", s.target, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(c)
	s.owner = make(map[int]int, s.sc.w.Users())
	for u := 0; u < s.sc.w.Users(); u++ {
		if _, err := fmt.Fprintf(c, "HOME %s\n", s.sc.w.UserName(u)); err != nil {
			return err
		}
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		var home int
		if _, err := fmt.Sscanf(line, "+OK home=%d", &home); err != nil {
			return fmt.Errorf("HOME %s: unexpected reply %q", s.sc.w.UserName(u), strings.TrimSpace(line))
		}
		s.owner[u] = home
	}
	return nil
}

// query issues one probe on c and files its latency under the probe's class.
func (s *session) query(c *client.Client, p probe, rec *recorder, round int) ([]string, error) {
	t0 := time.Now()
	rows, err := c.Query(p.text)
	d := time.Since(t0)
	name := [...]string{probeHot: "query.hot", probeCold: "query.cold", probeScan: "query.scan"}[p.class]
	rec.op(name, round, t0, d, err)
	if err != nil {
		// A failed probe has no latency; it counts as a miss of the 1 ms limit.
		if p.class != probeScan {
			rec.selFailed++
		}
		return nil, err
	}
	switch p.class {
	case probeHot:
		rec.hot = append(rec.hot, d)
	case probeCold:
		rec.cold = append(rec.cold, d)
	default:
		rec.scan = append(rec.scan, d)
	}
	if p.user >= 0 && s.owner != nil {
		if s.owner[p.user] == s.memberRank {
			rec.local = append(rec.local, d)
		} else {
			rec.forwarded = append(rec.forwarded, d)
		}
	}
	rec.rows += int64(len(rows))
	return rows, err
}

// Every probeCheckEvery-th lead probe and the L1–L3 POLL rows of every
// pollCheckEvery-th tick are kept for the reference check.
const (
	probeCheckEvery = 50
	pollCheckEvery  = 100
	checkedCQs      = 3
)

// runLead executes rounds on the lead connection, strictly in order and one
// request at a time, and returns how many rounds completed. A zero deadline
// means none; past the deadline the lead stops and the caller counts the
// unissued ops as failed. keep selects whether results are kept for the
// reference check (not during warm-up).
func (s *session) runLead(rounds []round, rec *recorder, deadline time.Time, keep bool) int {
	streams := lsbench.Streams()
	probes := func(r *round, id int) {
		for _, p := range r.probes {
			rows, err := s.query(s.lead, p, rec, id)
			s.leadProbes++
			if keep && err == nil && s.leadProbes%probeCheckEvery == 0 {
				s.probeChecks = append(s.probeChecks, probeCheck{ticks: s.ticksDone, text: p.text, rows: rows})
			}
		}
	}
	for id := range rounds {
		r := &rounds[id]
		if !deadline.IsZero() && time.Now().After(deadline) {
			return id
		}
		if s.sc.spec.probesFirst {
			probes(r, id)
		}
		// Decoding is the generator's work, not the client's: keep it out of
		// the tick time.
		tuples := make([][]rdf.Tuple, len(streams))
		for si := range streams {
			tuples[si] = s.sc.decode(r.tick.emits[si])
		}
		ok := true
		tickStart := time.Now()
		var lastEmit time.Time
		for si, name := range streams {
			t0 := time.Now()
			err := s.lead.Emit(name, tuples[si]...)
			d := time.Since(t0)
			rec.emit = append(rec.emit, d)
			rec.op("emit", id, t0, d, err)
			lastEmit = t0
			ok = ok && err == nil
		}
		t0 := time.Now()
		_, err := s.lead.Advance(r.tick.now)
		d := time.Since(t0)
		rec.advance = append(rec.advance, d)
		rec.op("advance", id, t0, d, err)
		ok = ok && err == nil
		if ok {
			s.ticksDone++
		} else if s.writeFail < 0 {
			s.writeFail = s.ticksDone
		}
		for qi, name := range s.cqNames {
			t0 := time.Now()
			fired, err := s.lead.Poll(name)
			d := time.Since(t0)
			rec.poll = append(rec.poll, d)
			rec.op("poll", id, t0, d, err)
			rec.rows += int64(len(fired))
			if keep && err == nil && qi < checkedCQs && s.ticksDone%pollCheckEvery == 0 {
				pc := pollCheck{ticks: s.ticksDone, cq: qi, at: r.tick.now}
				for _, f := range fired {
					if f.At != r.tick.now {
						// A row of another firing in this tick's POLL is a
						// delivery error; keep it so the comparison fails.
						pc.rows = append(pc.rows, fmt.Sprintf("@%d %s", f.At, f.Row))
						continue
					}
					pc.rows = append(pc.rows, f.Row)
				}
				s.pollChecks = append(s.pollChecks, pc)
			}
		}
		end := time.Now()
		rec.fresh = append(rec.fresh, end.Sub(lastEmit))
		rec.tick = append(rec.tick, end.Sub(tickStart))
		if !s.sc.spec.probesFirst {
			probes(r, id)
		}
		// One host-speed reading per measured round (every other warm-up
		// round), taken while the daemon is idle.
		if keep || id%2 == 0 {
			t0 := time.Now()
			err := s.yard.slice()
			rec.span("yardstick", id, t0, time.Since(t0), err)
			if err != nil {
				rec.fail("yardstick: " + err.Error())
			}
		}
	}
	return len(rounds)
}

// opsPerRound is how many operations the script holds per lead round.
func (s *session) opsPerRound() int {
	return len(lsbench.Streams()) + 1 + len(s.cqNames) + s.sc.spec.probesPerRound
}

// connections is the closed-loop client count: min(nproc, 2).
func connections() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// measured is everything one measured phase produced.
type measured struct {
	lead, follower *recorder // follower stays empty on the serial workloads
	wall           time.Duration
	rounds         int // lead rounds completed
	unissued       int // lead ops never sent because the deadline passed
	cpuUser        []float64
	cpuSys         []float64
	hwmMB          []float64
	steal, psi     float64
	yard           reading              // the phase's host-speed readings
	before, after  []map[string]float64 // METRICS per daemon (traced only)
}

// measure runs the measured phase: the lead executes the fixed script while,
// on the concurrent workloads, a follower issues probes until the lead is done.
func (s *session) measure(nominal time.Duration) (*measured, error) {
	m := &measured{}
	if s.sc.spec.cluster {
		if err := s.lookupOwners(); err != nil {
			return nil, fmt.Errorf("HOME lookup: %w", err)
		}
	}
	var follower *client.Client
	if s.sc.spec.follower && connections() > 1 {
		var err error
		if follower, err = client.Dial(s.target); err != nil {
			return nil, err
		}
		defer follower.Close()
	}
	var scrapers []*client.Client
	if s.traced {
		for _, d := range s.daemons {
			c, err := client.Dial(d.addr)
			if err != nil {
				return nil, err
			}
			defer c.Close()
			scrapers = append(scrapers, c)
		}
		var err error
		if m.before, err = scrape(scrapers); err != nil {
			return nil, err
		}
	}
	cpu0u, cpu0s := make([]float64, len(s.daemons)), make([]float64, len(s.daemons))
	for i, d := range s.daemons {
		var err error
		if cpu0u[i], cpu0s[i], err = procCPU(d.pid()); err != nil {
			return nil, err
		}
	}
	if _, err := s.yard.take(); err != nil {
		return nil, err
	}
	host0 := readHost()

	epoch := time.Now()
	m.lead = &recorder{conn: "lead", traced: s.traced, epoch: epoch}
	var stop atomic.Bool
	var wg sync.WaitGroup
	m.follower = &recorder{conn: "follower", traced: s.traced, epoch: epoch}
	if follower != nil {
		gen := s.sc.followerProbes()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.query(follower, gen.next(), m.follower, -1)
			}
		}()
	}
	// Hard wall-clock limit: three times the nominal phase length.
	m.rounds = s.runLead(s.sc.rounds, m.lead, epoch.Add(3*nominal), true)
	m.wall = time.Since(epoch)
	stop.Store(true)
	wg.Wait()
	var err error
	if m.yard, err = s.yard.take(); err != nil {
		return nil, err
	}
	m.unissued = (len(s.sc.rounds) - m.rounds) * s.opsPerRound()

	host1 := readHost()
	m.steal, m.psi = canary(host0, host1)
	for i, d := range s.daemons {
		u, sy, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		m.cpuUser = append(m.cpuUser, u-cpu0u[i])
		m.cpuSys = append(m.cpuSys, sy-cpu0s[i])
		hwm, err := procHWM(d.pid())
		if err != nil {
			return nil, err
		}
		m.hwmMB = append(m.hwmMB, hwm)
	}
	if s.traced {
		var err error
		if m.after, err = scrape(scrapers); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// verdict is the outcome of the reference check.
type verdict struct {
	checked    int
	mismatches int
	first      []string // first few mismatch descriptions
}

func (v *verdict) mismatch(format string, args ...any) {
	v.mismatches++
	if len(v.first) < 5 {
		v.first = append(v.first, fmt.Sprintf(format, args...))
	}
}

const sweepProbes = 200

// verify re-evaluates the kept lead results with the oracle and then runs a
// quiescent sweep of probes against every daemon. Untimed.
func (s *session) verify() (*verdict, error) {
	v := &verdict{}
	o := newOracle(s.sc)
	all := append(append([]round(nil), s.sc.warm...), s.sc.rounds...)
	// Only ticks whose writes were all acked are in the store; after a
	// failed write the prefix is unknown and later checks cannot be made.
	limit := s.ticksDone
	if s.writeFail >= 0 {
		limit = s.writeFail
	}
	for i := 0; i < limit; i++ {
		o.absorb(&all[i].tick)
	}
	for _, pc := range s.probeChecks {
		v.checked++
		if pc.ticks > limit {
			v.mismatch("probe after a failed write cannot be verified: %s", pc.text)
			continue
		}
		want, err := o.oneShot(pc.text, pc.ticks)
		if err != nil {
			return nil, err
		}
		if !sameRows(pc.rows, want) {
			v.mismatch("lead probe after tick %d: got %d rows, want %d: %s", pc.ticks, len(pc.rows), len(want), pc.text)
		}
	}
	for _, pc := range s.pollChecks {
		v.checked++
		if pc.ticks > limit {
			v.mismatch("POLL after a failed write cannot be verified: L%d at %d", pc.cq+1, pc.at)
			continue
		}
		want, err := o.continuous(s.sc.cqs[pc.cq], pc.ticks, pc.at)
		if err != nil {
			return nil, err
		}
		if !sameRows(pc.rows, want) {
			v.mismatch("L%d firing at %d: got %d rows, want %d", pc.cq+1, pc.at, len(pc.rows), len(want))
		}
	}
	if s.writeFail >= 0 {
		return v, nil // the final state is unknown; the failed write already counts
	}
	for _, d := range s.daemons {
		c, err := client.Dial(d.addr)
		if err != nil {
			return nil, err
		}
		gen := newProbeGen(s.sc.w, s.sc.seed^0x5ee9)
		for i := 0; i < sweepProbes; i++ {
			p := gen.next()
			v.checked++
			rows, err := c.Query(p.text)
			if err != nil {
				v.mismatch("sweep on rank %d: %v", d.rank, err)
				continue
			}
			want, err := o.oneShot(p.text, o.ticks())
			if err != nil {
				c.Close()
				return nil, err
			}
			if !sameRows(rows, want) {
				v.mismatch("sweep on rank %d: got %d rows, want %d: %s", d.rank, len(rows), len(want), p.text)
			}
		}
		c.Close()
	}
	return v, nil
}
