// Process-level chaos: where chaos.Run kills a simulated node inside one
// process, RunProc spawns real wukongsd daemons connected over the TCP wire
// transport, kill -9s one mid-load, and asserts the same failover contract
// across actual process boundaries:
//
//	(a) a survivor keeps answering every one-shot query from its own
//	    replica with sub-millisecond engine latency, and its answers equal a
//	    fault-free twin's;
//	(b) federated observability degrades to partial results that name the
//	    dead rank, and a write acked mid-outage leaves one causally linked
//	    trace across the live processes;
//	(c) the restarted daemon rejoins under its old rank, replays the op
//	    log, and its re-fired windows dedup — per window timestamp — to
//	    exactly the rows of an in-process fault-free twin run.
//
// The stream script is the same seed-deterministic scriptBatch the
// in-process harness uses, so the twin run needs no coordination: both
// sides regenerate the identical workload from Config.Seed.
package chaos

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ProcConfig scripts one process-level chaos run.
type ProcConfig struct {
	// Seed drives the scripted stream, so a failing run replays with the
	// same workload.
	Seed int64
	// Nodes is the daemon count (default 3; minimum 3 so a single kill
	// leaves two survivors, each watching the other and the victim). Each daemon's engine runs
	// wukongsd's default partition count, whatever the daemon count.
	Nodes int
	// Batches is the stream length in mini-batches (default 8).
	Batches int
	// TuplesPerBatch is the scripted density (default 6).
	TuplesPerBatch int
	// KillRank is the daemon to kill -9 (default Nodes-1; must not be the
	// seed — killing rank 0 is a different scenario, the op log has no
	// authority to fail over to).
	KillRank int
	// KillAtBatch / RestartAtBatch bound the outage window in batches
	// (defaults 3 and 6; restart must come after the kill).
	KillAtBatch    int
	RestartAtBatch int
	// WorkDir holds the built binary and per-daemon logs (required).
	WorkDir string
	// Bin is a prebuilt wukongsd binary ("" = go build one into WorkDir).
	Bin string
	// Heartbeat is the daemons' cluster probe period (default 25ms — fast
	// enough that death detection fits inside one harness-driven batch).
	Heartbeat time.Duration
	// Timeout bounds each individual wait (readiness, death detection,
	// rejoin, convergence; default 20s).
	Timeout time.Duration
	// SnapshotEvery is passed to daemons that get a -data-dir (seed-kill
	// runs only; 0 = the daemon default).
	SnapshotEvery int
	// Logf may be nil.
	Logf func(format string, args ...any)
}

func (c ProcConfig) procDefaults() ProcConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Batches <= 0 {
		c.Batches = 8
	}
	if c.TuplesPerBatch <= 0 {
		c.TuplesPerBatch = 6
	}
	if c.KillRank == 0 {
		c.KillRank = c.Nodes - 1
	}
	if c.KillAtBatch == 0 {
		c.KillAtBatch = 3
	}
	if c.RestartAtBatch == 0 {
		c.RestartAtBatch = 6
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = 25 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Second
	}
	return c
}

// ProcReport is the outcome of one process-level run.
type ProcReport struct {
	NodeDeclaredDead bool // a survivor's detector reached Dead for the victim
	NodeRejoined     bool // ... and saw it Alive again after the restart

	// Outage probes, all issued against a surviving member daemon and
	// checked against a fault-free twin replayed to the same batch.
	SurvivorQueries  int           // anchored probes, one per scripted subject emitted so far
	SurvivorFailures int           // ... that errored or disagreed with the twin (contract: 0)
	SurvivorLatMax   time.Duration // slowest server-reported engine latency
	ScanRows         int           // rows the unanchored ?X po ?Y probe returned
	TwinScanRows     int           // rows the twin returned for it

	// Federated observability, sampled mid-outage through the survivor.
	FedDeadAnnotated bool  // CLUSTER METRICS listed the dead rank with an explicit error
	FedLiveReports   int   // member reports that came back clean during the outage
	FedMergedOps     int64 // merged cluster_ops_applied_total across the survivors
	TraceSpans       int   // span count of the best cross-process trace on /debug/traces
	TraceNodes       int   // distinct ranks contributing spans to that trace
	TraceFedErrors   int   // per-node errors in the federated trace doc (the dead rank)

	// Windows are the survivor's polled deliveries, deduped per window
	// timestamp; RejoinWindows the restarted daemon's (its op-log replay
	// re-fires every window); TwinWindows the in-process fault-free twin's.
	Windows       map[rdf.Timestamp][]string
	RejoinWindows map[rdf.Timestamp][]string
	TwinWindows   map[rdf.Timestamp][]string
}

// procDaemon is one spawned wukongsd process.
type procDaemon struct {
	rank     int
	addr     string // line-protocol address
	wireAddr string // cluster transport address
	httpAddr string // metrics/traces HTTP address
	dataDir  string // durable oplog/snapshot dir ("" = in-memory only)
	cmd      *exec.Cmd
	waited   chan error
}

func (d *procDaemon) kill9() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
		<-d.waited
	}
	d.cmd = nil
}

// lineConn is a minimal raw protocol connection for the commands the Go
// client does not expose (CLUSTER) and for reading the server's
// engine-latency report verbatim off the QUERY status line.
type lineConn struct {
	c net.Conn
	r *bufio.Scanner
	w *bufio.Writer
}

func dialLine(addr string, timeout time.Duration) (*lineConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(timeout))
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &lineConn{c: c, r: sc, w: bufio.NewWriter(c)}, nil
}

func (l *lineConn) close() { l.c.Close() }

// cmd sends the given lines and returns the next status line.
func (l *lineConn) cmd(lines ...string) (string, error) {
	for _, s := range lines {
		fmt.Fprintf(l.w, "%s\n", s)
	}
	if err := l.w.Flush(); err != nil {
		return "", err
	}
	if !l.r.Scan() {
		if err := l.r.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("chaos: connection closed mid-response")
	}
	return l.r.Text(), nil
}

// block reads data lines until the "." terminator.
func (l *lineConn) block() ([]string, error) {
	var out []string
	for l.r.Scan() {
		if l.r.Text() == "." {
			return out, nil
		}
		out = append(out, l.r.Text())
	}
	return nil, fmt.Errorf("chaos: missing block terminator")
}

// freePorts reserves n distinct loopback ports by listening and closing.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitFor polls cond until it reports done or the deadline passes.
func waitFor(what string, timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		done, err := cond()
		if done {
			return nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	if lastErr != nil {
		return fmt.Errorf("chaos: timeout waiting for %s: %v", what, lastErr)
	}
	return fmt.Errorf("chaos: timeout waiting for %s", what)
}

// clusterView parses one daemon's CLUSTER response.
type clusterView struct {
	seq    uint64
	epoch  uint64         // authority epoch in this daemon's view
	auth   int            // rank this daemon believes is the write authority
	states map[int]string // rank → "self" | "alive" | "suspect" | "dead" | "unknown"
}

func readClusterView(addr string, timeout time.Duration) (*clusterView, error) {
	l, err := dialLine(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer l.close()
	st, err := l.cmd("CLUSTER")
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(st, "+OK") {
		return nil, fmt.Errorf("CLUSTER: %s", st)
	}
	lines, err := l.block()
	if err != nil {
		return nil, err
	}
	v := &clusterView{states: map[int]string{}}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == "SEQ" {
			v.seq, _ = strconv.ParseUint(f[1], 10, 64)
			continue
		}
		if len(f) == 4 && f[0] == "EPOCH" && f[2] == "AUTH" {
			v.epoch, _ = strconv.ParseUint(f[1], 10, 64)
			v.auth, _ = strconv.Atoi(f[3])
			continue
		}
		if len(f) == 3 {
			if r, err := strconv.Atoi(f[0]); err == nil {
				v.states[r] = f[2]
			}
		}
	}
	return v, nil
}

// spawn launches one wukongsd daemon and waits until its protocol port
// answers STATS. A daemon without a wire address runs standalone.
func (cfg ProcConfig) spawn(bin string, d *procDaemon, seedWire string) error {
	args := []string{
		"-addr", d.addr,
		"-metrics-addr", d.httpAddr,
		"-trace-sample", "1",
	}
	if d.wireAddr != "" {
		args = append(args, "-listen", d.wireAddr, "-cluster-heartbeat", cfg.Heartbeat.String())
	}
	if d.rank != 0 {
		args = append(args, "-join", seedWire)
	}
	if d.dataDir != "" {
		// -no-sync: a kill -9 keeps the page cache, and these runs measure
		// failover windows, not disk latency.
		args = append(args, "-data-dir", d.dataDir, "-no-sync")
		if cfg.SnapshotEvery > 0 {
			args = append(args, "-snapshot-every", strconv.Itoa(cfg.SnapshotEvery))
		}
	}
	logPath := filepath.Join(cfg.WorkDir, fmt.Sprintf("daemon-%d.log", d.rank))
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// A daemon without -data-dir keeps its op log in a private directory
	// under TMPDIR, which Close removes and kill -9 does not: rooting TMPDIR
	// in WorkDir removes that log with the run.
	tmp := filepath.Join(cfg.WorkDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		logFile.Close()
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return err
	}
	d.cmd = cmd
	d.waited = make(chan error, 1)
	go func() {
		d.waited <- cmd.Wait()
		logFile.Close()
	}()
	return waitFor(fmt.Sprintf("daemon %d ready", d.rank), cfg.Timeout, func() (bool, error) {
		select {
		case werr := <-d.waited:
			return false, fmt.Errorf("daemon %d exited: %v (see %s)", d.rank, werr, logPath)
		default:
		}
		l, err := dialLine(d.addr, 250*time.Millisecond)
		if err != nil {
			return false, err
		}
		defer l.close()
		st, err := l.cmd("STATS")
		return err == nil && strings.HasPrefix(st, "+OK"), err
	})
}

// queryRows runs one query on a raw connection and returns its rows and the
// server-reported engine latency from the "+OK <n> rows in <lat>" status.
func queryRows(l *lineConn, text string) ([]string, time.Duration, error) {
	st, err := l.cmd("QUERY", text, ".")
	if err != nil {
		return nil, 0, err
	}
	if !strings.HasPrefix(st, "+OK") {
		return nil, 0, errors.New(st)
	}
	rows, err := l.block()
	if err != nil {
		return nil, 0, err
	}
	f := strings.Fields(st)
	if len(f) != 5 {
		return nil, 0, fmt.Errorf("chaos: unexpected query status %q", st)
	}
	lat, err := time.ParseDuration(f[4])
	return rows, lat, err
}

// probeProcOutage asks the survivor, while the victim is down, for every
// scripted subject emitted so far and for the unanchored scan, and checks
// each answer against a fault-free twin replayed to the same batch.
func probeProcOutage(cfg ProcConfig, survivor *procDaemon, rep *ProcReport) error {
	twin, _, err := twinThrough(cfg, cfg.KillAtBatch)
	if err != nil {
		return err
	}
	defer twin.Close()
	l, err := dialLine(survivor.addr, cfg.Timeout)
	if err != nil {
		return err
	}
	defer l.close()
	for i := 0; i < scriptSubjects; i++ {
		name := fmt.Sprintf("u%d", i)
		if _, ok := twin.StringServer().LookupEntity(rdf.NewIRI(name)); !ok {
			continue // not emitted yet
		}
		q := fmt.Sprintf("SELECT ?Y WHERE { %s po ?Y }", name)
		want, err := twin.Query(q)
		if err != nil {
			return err
		}
		rep.SurvivorQueries++
		rows, lat, qerr := queryRows(l, q)
		sort.Strings(rows)
		twinRows := want.Strings()
		sort.Strings(twinRows)
		if qerr != nil || len(rows) == 0 || fmt.Sprint(rows) != fmt.Sprint(twinRows) {
			rep.SurvivorFailures++
			if cfg.Logf != nil {
				cfg.Logf("chaos: outage probe %s: got %v (%v), twin %v", name, rows, qerr, twinRows)
			}
			continue
		}
		if lat > rep.SurvivorLatMax {
			rep.SurvivorLatMax = lat
		}
	}
	const scan = "SELECT ?X ?Y WHERE { ?X po ?Y }"
	want, err := twin.Query(scan)
	if err != nil {
		return err
	}
	rep.TwinScanRows = want.Len()
	rows, _, err := queryRows(l, scan)
	if err != nil {
		return err
	}
	rep.ScanRows = len(rows)
	return nil
}

// probeFedObservability samples the federated observability surfaces while
// the victim is still down, all through the survivor: the CLUSTER METRICS
// wire command must return partial results annotating the dead rank with an
// explicit error (never stalling on it), and the survivor's /debug/traces
// HTTP endpoint must serve a causally-linked cross-process trace for a write
// the harness sends mid-outage.
func probeFedObservability(cfg ProcConfig, survivor *procDaemon, rep *ProcReport) error {
	l, err := dialLine(survivor.addr, cfg.Timeout)
	if err != nil {
		return err
	}
	defer l.close()

	// One write through the survivor, mid-outage: an EMIT of no tuples is
	// forwarded, sequenced and replicated like any other but leaves the
	// script — and so the twin comparison — untouched.
	since := time.Now().UnixNano()
	if st, err := l.cmd("EMIT "+StreamName, "."); err != nil || !strings.HasPrefix(st, "+OK") {
		return fmt.Errorf("chaos: mid-outage EMIT: %q, %v", st, err)
	}

	// CLUSTER METRICS over the wire: merged counters plus per-member
	// annotations, degraded — not blocked — by the dead rank.
	st, err := l.cmd("CLUSTER METRICS")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(st, "+OK") {
		return fmt.Errorf("chaos: CLUSTER METRICS: %s", st)
	}
	lines, err := l.block()
	if err != nil {
		return err
	}
	var doc struct {
		Metrics map[string]obs.JSONMetric `json:"metrics"`
		Members []cluster.MemberReport    `json:"members"`
	}
	if err := json.Unmarshal([]byte(strings.Join(lines, "\n")), &doc); err != nil {
		return fmt.Errorf("chaos: CLUSTER METRICS json: %v", err)
	}
	for _, m := range doc.Members {
		switch {
		case m.Rank == cfg.KillRank:
			rep.FedDeadAnnotated = m.Err != "" && m.State == "dead"
		case m.Err == "":
			rep.FedLiveReports++
		}
	}
	for name, m := range doc.Metrics { // registry prefix varies by deployment
		if strings.HasSuffix(name, "cluster_ops_applied_total") && m.Value != nil {
			rep.FedMergedOps = *m.Value
		}
	}

	// That write's trace (server.emit → cluster.forward → seed.apply →
	// seed.replicate → replica.apply) must come back over HTTP, federated:
	// the merged span set from both live daemons plus the dead rank's error.
	return waitFor("cross-process trace on /debug/traces", cfg.Timeout, func() (bool, error) {
		resp, err := http.Get("http://" + survivor.httpAddr + "/debug/traces?n=256")
		if err != nil {
			return false, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		var tdoc trace.TracesDoc
		if err := json.Unmarshal(body, &tdoc); err != nil {
			return false, fmt.Errorf("bad /debug/traces json: %v", err)
		}
		rep.TraceFedErrors = len(tdoc.Errors)
		for _, tr := range tdoc.Traces {
			if tr.Root.Name == "server.emit" && tr.Start >= since &&
				len(tr.Nodes) >= 2 && tr.Orphans == 0 && tr.Spans > rep.TraceSpans {
				rep.TraceSpans = tr.Spans
				rep.TraceNodes = len(tr.Nodes)
			}
		}
		return rep.TraceSpans >= 4 && rep.TraceFedErrors > 0, nil
	})
}

// dedupWindows collapses polled fire rows ("@<ts> <row>") to one sorted row
// set per window, erroring on divergent repeats.
func dedupWindows(fires []client.FireRow) (map[rdf.Timestamp][]string, error) {
	byAt := map[rdf.Timestamp][]string{}
	for _, f := range fires {
		byAt[f.At] = append(byAt[f.At], f.Row)
	}
	for at, rows := range byAt {
		sort.Strings(rows)
		uniq := rows[:0]
		for i, r := range rows {
			if i == 0 || rows[i-1] != r {
				uniq = append(uniq, r)
			}
		}
		byAt[at] = uniq
	}
	return byAt, nil
}

// twinEngineNodes sizes the twin's engine. Replicas agree whatever their
// partition counts, so it need not match the daemons'.
const twinEngineNodes = 2

// twinThrough replays batches 1..upTo of the identical script on an
// in-process fault-free engine. It returns the engine (the caller closes it)
// and the windows its continuous query has fired and will go on firing.
func twinThrough(cfg ProcConfig, upTo int) (*core.Engine, map[rdf.Timestamp][]string, error) {
	e, err := core.New(core.Config{
		Nodes:          twinEngineNodes,
		WorkersPerNode: 2,
		Metrics:        obs.NewRegistry("chaos_twin"),
	})
	if err != nil {
		return nil, nil, err
	}
	src, err := e.RegisterStream(stream.Config{Name: StreamName, BatchInterval: batchMS * time.Millisecond})
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	windows := map[rdf.Timestamp][]string{}
	if _, err := e.RegisterContinuous(queryText, func(r *core.Result, f core.FireInfo) {
		// Sort and collapse duplicate rows (a script can emit the same tuple
		// twice in one window) so twin windows compare against the daemons'
		// dedupWindows output symmetrically.
		rows := append([]string(nil), r.Strings()...)
		sort.Strings(rows)
		uniq := rows[:0]
		for i, row := range rows {
			if i == 0 || rows[i-1] != row {
				uniq = append(uniq, row)
			}
		}
		windows[f.At] = uniq
	}); err != nil {
		e.Close()
		return nil, nil, err
	}
	for b := 1; b <= upTo; b++ {
		for _, tu := range scriptBatch(cfg.Seed, b, cfg.TuplesPerBatch) {
			if err := src.Emit(tu); err != nil {
				e.Close()
				return nil, nil, err
			}
		}
		e.AdvanceTo(rdf.Timestamp(b * batchMS))
	}
	return e, windows, nil
}

// runTwin replays the whole script on the twin, flushes the trailing
// boundaries, and returns its windows.
func runTwin(cfg ProcConfig) (map[rdf.Timestamp][]string, error) {
	e, windows, err := twinThrough(cfg, cfg.Batches)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	e.AdvanceTo(rdf.Timestamp((cfg.Batches + 1) * batchMS))
	e.AdvanceTo(rdf.Timestamp((cfg.Batches + 2) * batchMS))
	return windows, nil
}

// EnsureBin returns a wukongsd binary path, building one into WorkDir when
// the config does not bring its own.
func (cfg ProcConfig) EnsureBin() (string, error) {
	if cfg.Bin != "" {
		return cfg.Bin, nil
	}
	bin := filepath.Join(cfg.WorkDir, "wukongsd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/wukongsd")
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("chaos: building wukongsd: %v\n%s", err, out)
	}
	return bin, nil
}

// procCluster is one process-level scenario in flight: its daemons (only
// those with a live cmd are running) and the client that drives the script.
type procCluster struct {
	cfg     ProcConfig
	logf    func(format string, args ...any)
	bin     string
	daemons []*procDaemon
	cl      *client.Client
	qname   string
}

// startProc builds the binary, lays out n daemons (durable ones get a data
// directory), spawns the first cfg.Nodes of them, and registers the
// script's stream and continuous query through daemons[drive]. The caller
// closes the cluster.
func startProc(cfg ProcConfig, n, drive int, durable bool, opts client.Options) (p *procCluster, err error) {
	if cfg.WorkDir == "" {
		return nil, fmt.Errorf("chaos: ProcConfig.WorkDir is required")
	}
	p = &procCluster{cfg: cfg, logf: cfg.Logf}
	if p.logf == nil {
		p.logf = func(string, ...any) {}
	}
	if p.bin, err = cfg.EnsureBin(); err != nil {
		return nil, err
	}
	ports, err := freePorts(3 * n)
	if err != nil {
		return nil, err
	}
	for r := 0; r < n; r++ {
		d := &procDaemon{
			rank:     r,
			addr:     fmt.Sprintf("127.0.0.1:%d", ports[3*r]),
			wireAddr: fmt.Sprintf("127.0.0.1:%d", ports[3*r+1]),
			httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[3*r+2]),
		}
		if durable {
			d.dataDir = filepath.Join(cfg.WorkDir, fmt.Sprintf("data-%d", r))
			if err := os.MkdirAll(d.dataDir, 0o755); err != nil {
				return nil, err
			}
		}
		p.daemons = append(p.daemons, d)
	}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	for _, d := range p.daemons[:cfg.Nodes] {
		if err := p.spawn(d, p.daemons[0]); err != nil {
			return nil, err
		}
	}
	p.logf("chaos: %d daemons up", cfg.Nodes)
	opts.JitterSeed = cfg.Seed
	if p.cl, err = client.DialOptions(p.daemons[drive].addr, opts); err != nil {
		return nil, err
	}
	if err := p.cl.Stream(StreamName, batchMS*time.Millisecond); err != nil {
		return nil, err
	}
	p.qname, err = p.cl.Register(queryText)
	return p, err
}

// spawn starts d joining through via (ignored for rank 0).
func (p *procCluster) spawn(d, via *procDaemon) error { return p.cfg.spawn(p.bin, d, via.wireAddr) }

func (p *procCluster) close() {
	if p.cl != nil {
		p.cl.Close()
	}
	for _, d := range p.daemons {
		d.kill9()
	}
}

// emit sends scripted batch b.
func (p *procCluster) emit(b int) error {
	if err := p.cl.Emit(StreamName, scriptBatch(p.cfg.Seed, b, p.cfg.TuplesPerBatch)...); err != nil {
		return fmt.Errorf("chaos: emit batch %d: %w", b, err)
	}
	return nil
}

// advance moves the cluster clock to batch b's boundary.
func (p *procCluster) advance(b int) error {
	if _, err := p.cl.Advance(rdf.Timestamp(b * batchMS)); err != nil {
		return fmt.Errorf("chaos: advance batch %d: %w", b, err)
	}
	return nil
}

// finish flushes the trailing windows, waits until every running daemon has
// applied ref's op log, and polls the driving connection's deliveries.
func (p *procCluster) finish(ref *procDaemon) (map[rdf.Timestamp][]string, error) {
	for b := p.cfg.Batches + 1; b <= p.cfg.Batches+2; b++ {
		if err := p.advance(b); err != nil {
			return nil, err
		}
	}
	refView, err := readClusterView(ref.addr, p.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	for _, d := range p.daemons {
		if d.cmd == nil {
			continue
		}
		if err := waitFor(fmt.Sprintf("daemon %d converged", d.rank), p.cfg.Timeout, func() (bool, error) {
			v, err := readClusterView(d.addr, time.Second)
			return err == nil && v.seq >= refView.seq, err
		}); err != nil {
			return nil, err
		}
	}
	fires, err := p.cl.Poll(p.qname)
	if err != nil {
		return nil, err
	}
	return dedupWindows(fires)
}

// windows polls d's deliveries through a connection of its own.
func (p *procCluster) windows(d *procDaemon) (map[rdf.Timestamp][]string, error) {
	c, err := client.DialOptions(d.addr, client.Options{JitterSeed: p.cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fires, err := c.Poll(p.qname)
	if err != nil {
		return nil, err
	}
	return dedupWindows(fires)
}

// RunProc executes one process-level chaos run: build, spawn, load, kill -9,
// probe, restart, converge, poll, and compare against the fault-free twin.
func RunProc(cfg ProcConfig) (*ProcReport, error) {
	cfg = cfg.procDefaults()
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("chaos: process-level kill needs at least 3 daemons, got %d", cfg.Nodes)
	}
	if cfg.KillRank <= 0 || cfg.KillRank >= cfg.Nodes {
		return nil, fmt.Errorf("chaos: KillRank %d must be a non-seed rank", cfg.KillRank)
	}
	if cfg.RestartAtBatch <= cfg.KillAtBatch || cfg.RestartAtBatch > cfg.Batches {
		return nil, fmt.Errorf("chaos: RestartAtBatch %d must be inside (KillAtBatch, Batches]", cfg.RestartAtBatch)
	}
	// Drive the whole script through a surviving member — the relay path
	// (member → seed → replicas) is the one under test.
	p, err := startProc(cfg, cfg.Nodes, 1, false, client.Options{})
	if err != nil {
		return nil, err
	}
	defer p.close()
	survivor, victim := p.daemons[1], p.daemons[cfg.KillRank]

	rep := &ProcReport{}
	for b := 1; b <= cfg.Batches; b++ {
		if err := p.emit(b); err != nil {
			return nil, err
		}
		if err := p.advance(b); err != nil {
			return nil, err
		}
		if b == cfg.KillAtBatch {
			victim.kill9()
			p.logf("chaos: kill -9 rank %d at batch %d", cfg.KillRank, b)
			if err := waitFor("victim declared dead", cfg.Timeout, func() (bool, error) {
				v, err := readClusterView(survivor.addr, time.Second)
				return err == nil && v.states[cfg.KillRank] == "dead", err
			}); err != nil {
				return nil, err
			}
			rep.NodeDeclaredDead = true
			if err := probeProcOutage(cfg, survivor, rep); err != nil {
				return nil, err
			}
			p.logf("chaos: outage reads on rank %d: %d probes, %d failed, slowest %v",
				survivor.rank, rep.SurvivorQueries, rep.SurvivorFailures, rep.SurvivorLatMax)
			if err := probeFedObservability(cfg, survivor, rep); err != nil {
				return nil, err
			}
		}
		if b == cfg.RestartAtBatch {
			if err := p.spawn(victim, p.daemons[0]); err != nil {
				return nil, fmt.Errorf("chaos: restarting rank %d: %w", cfg.KillRank, err)
			}
			p.logf("chaos: rank %d restarted at batch %d", cfg.KillRank, b)
			if err := waitFor("victim rejoined", cfg.Timeout, func() (bool, error) {
				v, err := readClusterView(survivor.addr, time.Second)
				return err == nil && v.states[cfg.KillRank] == "alive", err
			}); err != nil {
				return nil, err
			}
			rep.NodeRejoined = true
		}
	}
	// Every daemon must converge on the seed's op log before the final polls.
	if rep.Windows, err = p.finish(p.daemons[0]); err != nil {
		return nil, err
	}
	if rep.RejoinWindows, err = p.windows(victim); err != nil {
		return nil, err
	}
	if rep.TwinWindows, err = runTwin(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Seed-kill chaos: kill -9 the write authority itself.
//
// RunProc kills a non-seed member — the op log keeps its sequencer and the
// contract is about survivor reads. RunProcSeedKill kills rank 0, the
// authority, under sustained EMIT load, and asserts the succession contract
// (DESIGN.md §15):
//
//	(a) the deterministic successor (rank 1) fences a new epoch and starts
//	    acking writes within a bounded — and metrics-recorded — window;
//	(b) no acked operation is lost or applied twice across the takeover:
//	    the driving client rides the outage inside a single id-bearing
//	    logical op per write, and every survivor's windows dedup to the
//	    fault-free twin;
//	(c) the ex-seed restarted from its stale durable state comes back
//	    demoted: it resumes as a member under the successor's fenced epoch
//	    instead of re-crowning itself from disk.

// SeedKillReport is the outcome of one seed-kill run.
type SeedKillReport struct {
	SeedDeclaredDead   bool          // successor's detector reached Dead for rank 0
	FailoverEpoch      uint64        // successor's epoch after the takeover (contract: >= 2)
	FailoverAuthority  int           // rank the successor believes sequences now (contract: 1)
	WriteUnavail       time.Duration // harness-observed: kill -9 to the next write ack
	UnavailRecorded    bool          // successor's cluster_write_unavail_ns histogram saw the window
	RecordedUnavailMax time.Duration // that histogram's max sample

	ExSeedResumed bool   // restarted rank 0 is alive again in the successor's view
	ExSeedDemoted bool   // ...and its own view agrees: authority is rank 1, epoch fenced
	ExSeedEpoch   uint64 // epoch the restarted ex-seed converged to

	Windows       map[rdf.Timestamp][]string // successor's polled deliveries
	RejoinWindows map[rdf.Timestamp][]string // restarted ex-seed's deliveries
	TwinWindows   map[rdf.Timestamp][]string // in-process fault-free twin's
}

// fetchMetricsJSON reads one daemon's /metrics endpoint as JSON.
func fetchMetricsJSON(httpAddr string) (map[string]obs.JSONMetric, error) {
	resp, err := http.Get("http://" + httpAddr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var m map[string]obs.JSONMetric
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("chaos: bad /metrics json: %v", err)
	}
	return m, nil
}

// RunProcSeedKill executes one seed-kill run: spawn a durable cluster, drive
// the scripted stream through the successor-to-be, kill -9 the authority
// mid-script, measure the write-unavailability window, restart the ex-seed
// from its stale data directory, and compare every survivor to the twin.
func RunProcSeedKill(cfg ProcConfig) (*SeedKillReport, error) {
	cfg = cfg.procDefaults()
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("chaos: seed kill needs at least 3 daemons, got %d", cfg.Nodes)
	}
	if cfg.RestartAtBatch <= cfg.KillAtBatch || cfg.RestartAtBatch > cfg.Batches {
		return nil, fmt.Errorf("chaos: RestartAtBatch %d must be inside (KillAtBatch, Batches]", cfg.RestartAtBatch)
	}
	// Drive everything through the successor-to-be. A generous retry
	// budget keeps each write inside ONE id-bearing logical op, so a write
	// that raced the takeover retries with the same id — the dedup table,
	// not the harness, guarantees exactly-once.
	p, err := startProc(cfg, cfg.Nodes, 1, true, client.Options{MaxRetries: 400})
	if err != nil {
		return nil, err
	}
	defer p.close()
	seed, successor := p.daemons[0], p.daemons[1]

	rep := &SeedKillReport{}
	var killedAt time.Time
	for b := 1; b <= cfg.Batches; b++ {
		if err := p.emit(b); err != nil {
			return nil, err
		}
		if !killedAt.IsZero() && rep.WriteUnavail == 0 {
			// First write acked under the successor: the unavailability
			// window spans death detection, fencing, and this op's commit.
			rep.WriteUnavail = time.Since(killedAt)
			v, err := readClusterView(successor.addr, cfg.Timeout)
			if err != nil {
				return nil, err
			}
			rep.SeedDeclaredDead = v.states[0] == "dead"
			rep.FailoverEpoch = v.epoch
			rep.FailoverAuthority = v.auth
			p.logf("chaos: writes resumed %v after kill (epoch %d, authority %d)",
				rep.WriteUnavail, v.epoch, v.auth)
			if m, err := fetchMetricsJSON(successor.httpAddr); err == nil {
				for name, jm := range m {
					if strings.HasSuffix(name, "cluster_write_unavail_ns") && jm.Histogram != nil && jm.Histogram.Count > 0 {
						rep.UnavailRecorded = true
						rep.RecordedUnavailMax = time.Duration(jm.Histogram.Max)
					}
				}
			}
		}
		if err := p.advance(b); err != nil {
			return nil, err
		}
		if b == cfg.KillAtBatch {
			seed.kill9()
			killedAt = time.Now()
			p.logf("chaos: kill -9 the authority (rank 0) at batch %d", b)
		}
		if b == cfg.RestartAtBatch {
			// The ex-seed comes back with its stale durable state. Resume
			// must find the live fenced cluster and rejoin demoted — never
			// re-crown itself from disk.
			if err := p.spawn(seed, successor); err != nil {
				return nil, fmt.Errorf("chaos: restarting ex-seed: %w", err)
			}
			p.logf("chaos: ex-seed restarted from %s at batch %d", seed.dataDir, b)
			if err := waitFor("ex-seed rejoined", cfg.Timeout, func() (bool, error) {
				v, err := readClusterView(successor.addr, time.Second)
				return err == nil && v.states[0] == "alive", err
			}); err != nil {
				return nil, err
			}
			rep.ExSeedResumed = true
			if err := waitFor("ex-seed demoted under the fenced epoch", cfg.Timeout, func() (bool, error) {
				v, err := readClusterView(seed.addr, time.Second)
				if err != nil {
					return false, err
				}
				rep.ExSeedEpoch = v.epoch
				rep.ExSeedDemoted = v.auth == 1 && v.epoch >= rep.FailoverEpoch
				return rep.ExSeedDemoted, nil
			}); err != nil {
				return nil, err
			}
		}
	}
	// Everyone converges on the successor's op log before the final polls.
	if rep.Windows, err = p.finish(successor); err != nil {
		return nil, err
	}
	if rep.RejoinWindows, err = p.windows(seed); err != nil {
		return nil, err
	}
	if rep.TwinWindows, err = runTwin(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Growth: a daemon joins a running cluster.
//
// RunProcJoin starts cfg.Nodes daemons, drives the first half of the script
// through rank 1, then starts one more daemon with -join. Ranks come from
// membership, so the newcomer takes rank cfg.Nodes, replays the op log (or
// catches up by snapshot), and from then on receives every broadcast. The
// rest of the script runs with it in the cluster. The contract:
//
//	(a) the newcomer reports itself as rank cfg.Nodes, and every original
//	    daemon lists it alive;
//	(b) once the script ends, its cluster_applied_seq equals the driving
//	    member's;
//	(c) its polled deliveries dedup to exactly the driving member's and the
//	    fault-free twin's.

// JoinReport is the outcome of one growth run.
type JoinReport struct {
	JoinerRank    int  // rank the newcomer reports for itself
	SeenByAll     bool // every original daemon lists the newcomer alive
	JoinerApplied int64
	MemberApplied int64 // the driving member's cluster_applied_seq at the same point

	Windows       map[rdf.Timestamp][]string // driving member's polled deliveries
	JoinerWindows map[rdf.Timestamp][]string // newcomer's deliveries
	TwinWindows   map[rdf.Timestamp][]string // in-process fault-free twin's
}

// appliedSeq reads one daemon's cluster_applied_seq gauge from /metrics.
func appliedSeq(httpAddr string, rank int) (int64, error) {
	m, err := fetchMetricsJSON(httpAddr)
	if err != nil {
		return 0, err
	}
	want := obs.Name("cluster_applied_seq", "rank", strconv.Itoa(rank))
	for name, jm := range m {
		if strings.HasSuffix(name, want) && jm.Value != nil {
			return *jm.Value, nil
		}
	}
	return 0, fmt.Errorf("chaos: %s not on %s/metrics", want, httpAddr)
}

// RunProcJoin executes one growth run: spawn, drive half the script, start
// one more daemon, drive the rest, converge, poll, and compare.
func RunProcJoin(cfg ProcConfig) (*JoinReport, error) {
	cfg = cfg.procDefaults()
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("chaos: growth needs a running cluster of at least 2 daemons, got %d", cfg.Nodes)
	}
	p, err := startProc(cfg, cfg.Nodes+1, 1, false, client.Options{})
	if err != nil {
		return nil, err
	}
	defer p.close()
	member, joiner := p.daemons[1], p.daemons[cfg.Nodes]

	rep := &JoinReport{JoinerRank: -1}
	for b := 1; b <= cfg.Batches; b++ {
		if err := p.emit(b); err != nil {
			return nil, err
		}
		if err := p.advance(b); err != nil {
			return nil, err
		}
		if b != cfg.Batches/2 {
			continue
		}
		if err := p.spawn(joiner, p.daemons[0]); err != nil {
			return nil, fmt.Errorf("chaos: starting daemon %d: %w", cfg.Nodes+1, err)
		}
		v, err := readClusterView(joiner.addr, cfg.Timeout)
		if err != nil {
			return nil, err
		}
		for r, st := range v.states {
			if st == "self" {
				rep.JoinerRank = r
			}
		}
		p.logf("chaos: daemon %d joined as rank %d at batch %d", cfg.Nodes+1, rep.JoinerRank, b)
		if err := waitFor("newcomer seen alive by every daemon", cfg.Timeout, func() (bool, error) {
			for _, d := range p.daemons[:cfg.Nodes] {
				v, err := readClusterView(d.addr, time.Second)
				if err != nil || v.states[rep.JoinerRank] != "alive" {
					return false, err
				}
			}
			return true, nil
		}); err != nil {
			return nil, err
		}
		rep.SeenByAll = true
	}
	if rep.Windows, err = p.finish(member); err != nil {
		return nil, err
	}
	if rep.MemberApplied, err = appliedSeq(member.httpAddr, member.rank); err != nil {
		return nil, err
	}
	if rep.JoinerApplied, err = appliedSeq(joiner.httpAddr, rep.JoinerRank); err != nil {
		return nil, err
	}
	if rep.JoinerWindows, err = p.windows(joiner); err != nil {
		return nil, err
	}
	if rep.TwinWindows, err = runTwin(cfg); err != nil {
		return nil, err
	}
	return rep, nil
}
