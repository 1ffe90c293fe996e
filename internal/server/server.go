// Package server exposes a Wukong+S engine over TCP with a line-oriented
// text protocol, playing the role of the paper's client library / proxy
// layer (§3): clients parse and submit queries, register continuous
// queries, push stream tuples, and drive the logical clock.
//
// Protocol (requests end with a line containing only "."; responses are
// "+OK ..." or "-ERR ...", followed by data lines and a "." terminator
// where noted):
//
//	STREAM <name> <interval_ms> [timingPred ...]   register a stream
//	LOAD                                           then N-Triples lines, "."
//	EMIT <stream>                                  then tuple lines, "."
//	ADVANCE <ts_ms>                                drive the clock
//	REGISTER                                       then C-SPARQL text, "." → +OK registered <name>
//	QUERY                                          then C-SPARQL text, "." → rows, "."
//	EXPLAIN                                        then C-SPARQL text, "." → plan, "."
//	POLL <name>                                    buffered results → rows, "."
//	STATS                                          engine counters
//	METRICS                                        Prometheus text dump, "."
//	CLUSTER                                        membership view → lines, "." (cluster mode)
//	CLUSTER STATS|METRICS|TRACES                   federated stats lines / JSON, "." (cluster mode)
//	HOME <entity>                                  placement diagnostic (cluster mode)
//	QUIT
//
// The first five are the write verbs. Each may end with an "id=<token>"
// argument, the client's exactly-once handle: cluster mode threads it into
// the replicated dedup table, a standalone daemon drops it. Both modes
// execute them with the same code, cluster.ApplyVerb — a standalone daemon
// calls it on its engine, a cluster daemon forwards the command to the write
// authority, which calls it there and on every replica — so a command gets
// the same reply, or the same refusal, whichever daemon it reaches, and a
// refused command changes nothing anywhere.
//
// The server is deliberately simple — its purpose is to make the engine a
// deployable artifact (cmd/wukongsd) and exercise the full client path in
// tests, not to compete with RDMA messaging.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trace"
)

// pollBuf buffers one continuous query's rows between POLLs. When full, the
// oldest rows are dropped (the client is lagging; fresh results matter more)
// and the loss is counted so POLL can report it. dropped resets on every POLL
// (the delta the client acts on); cumDropped and cumRows never reset — they
// feed STATS and /metrics, where drop totals must survive polling.
type pollBuf struct {
	rows       []string
	dropped    int
	cumDropped int64
	cumRows    int64
}

// Server wraps an engine with the TCP front end.
type Server struct {
	eng *core.Engine

	// IdleTimeout, when > 0, disconnects clients idle longer than this
	// between requests. Set before Serve.
	IdleTimeout time.Duration
	// ShutdownTimeout bounds how long Close waits for in-flight connections
	// before force-closing them (default 1s). Set before Serve.
	ShutdownTimeout time.Duration
	// PollBuffer bounds the rows buffered per continuous query between
	// POLLs (default 10000). Set before Serve.
	PollBuffer int
	// EmitRate, when > 0, rate-limits EMIT admission to this many tuples per
	// second (token bucket of EmitBurst tuples, default one second's worth).
	// A shed EMIT gets "-ERR overload retry-after=<duration>: ..." and no
	// tuple of it is admitted; one of more tuples than the burst can never
	// be admitted and gets a plain "-ERR" that says so. Set before Serve.
	EmitRate  float64
	EmitBurst float64
	// MaxPollRows caps the rows one POLL returns (0 = unlimited); the
	// remainder stays buffered for the next POLL.
	MaxPollRows int
	// Tracer, when non-nil, records a root span per state-touching command
	// (QUERY and the write path); in cluster mode a write's context rides the
	// wire so downstream hops land in the same trace. Set before Serve.
	Tracer *trace.Tracer

	emitLim   *flow.Limiter // built by Serve from the Emit* fields, read-only after
	cEmitShed *obs.Counter  // server_emit_shed_total
	cPollTrim *obs.Counter  // server_poll_truncated_total
	verbs     map[string]verbObs

	mu      sync.Mutex
	cluster ClusterBackend      // nil = single-process daemon
	results map[string]*pollBuf // continuous query name → buffered rows
	ln      net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  bool

	connsTotal    atomic.Int64 // connections ever accepted
	commandsTotal atomic.Int64 // commands dispatched across all connections
}

// New wraps an engine (which the caller keeps owning).
func New(eng *core.Engine) *Server {
	s := &Server{
		eng:     eng,
		results: make(map[string]*pollBuf),
		conns:   make(map[net.Conn]struct{}),
	}
	r := eng.Metrics()
	r.GaugeFunc("server_active_connections", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	r.GaugeFunc("server_connections_total", s.connsTotal.Load)
	r.GaugeFunc("server_commands_total", s.commandsTotal.Load)
	r.GaugeFunc("server_poll_rows_total", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, buf := range s.results {
			n += buf.cumRows
		}
		return n
	})
	r.GaugeFunc("server_poll_dropped_rows_total", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.droppedTotalLocked()
	})
	r.GaugeFunc("server_poll_buffered_rows", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, buf := range s.results {
			n += int64(len(buf.rows))
		}
		return n
	})
	s.cEmitShed = r.Counter("server_emit_shed_total")
	s.cPollTrim = r.Counter("server_poll_truncated_total")
	s.verbs = make(map[string]verbObs, len(verbs))
	for _, v := range verbs {
		s.verbs[v] = verbObs{
			latency: r.Histogram(obs.Name("server_request_latency_ns", "verb", v), obs.LatencyBuckets),
			bytes:   r.Counter(obs.Name("server_reply_bytes_total", "verb", v)),
		}
	}
	return s
}

// verbs label the per-verb request metrics: the commands handle serves, and
// otherVerb for any other line, so a client cannot grow the label set.
var verbs = []string{"STREAM", "LOAD", "EMIT", "ADVANCE", "REGISTER", "QUERY", "EXPLAIN", "POLL", "STATS", "METRICS", "CLUSTER", "HOME", otherVerb}

const otherVerb = "OTHER"

// verbObs is one verb's daemon-side request metrics.
type verbObs struct {
	latency *obs.Histogram // server_request_latency_ns{verb}: command read to reply flush
	bytes   *obs.Counter   // server_reply_bytes_total{verb}
}

// observe records one request of verb cmd that was read at start and whose
// reply of n bytes has just been flushed.
func (s *Server) observe(cmd string, start time.Time, n int64) {
	vo, ok := s.verbs[cmd]
	if !ok {
		vo = s.verbs[otherVerb]
	}
	vo.latency.Observe(time.Since(start))
	vo.bytes.Add(n)
}

// replyBufferSize is each connection's reply buffer. A reply that fits —
// an S4 scan's is about 6 KB — leaves in one write syscall when the command
// ends, so the client wakes once for it.
const replyBufferSize = 64 << 10

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// droppedTotalLocked sums cumulative dropped rows across all poll buffers.
// Caller holds s.mu.
func (s *Server) droppedTotalLocked() int64 {
	var n int64
	for _, buf := range s.results {
		n += buf.cumDropped
	}
	return n
}

// DroppedRows returns the cumulative dropped-row count for one continuous
// query and across all queries — unlike POLL's delta, these never reset.
func (s *Server) DroppedRows(name string) (query, total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf := s.results[name]; buf != nil {
		query = buf.cumDropped
	}
	return query, s.droppedTotalLocked()
}

// Serve accepts connections until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	if s.emitLim == nil && s.EmitRate > 0 {
		s.emitLim = flow.NewLimiter(s.EmitRate, s.EmitBurst)
	}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connsTotal.Add(1)
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound address (once serving).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, gives in-flight connections ShutdownTimeout to
// finish, then force-closes whatever is left and waits for the handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	deadline := s.ShutdownTimeout
	s.mu.Unlock()
	if deadline <= 0 {
		deadline = time.Second
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// idleConn re-arms a read deadline on every Read so a stalled client is
// disconnected after IdleTimeout instead of pinning a handler forever.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(c.idle))
	return c.Conn.Read(p)
}

// lineReader is one connection's input side: the line scanner plus the
// scratch the connection's handler — the only goroutine that reads it —
// reuses from command to command.
type lineReader struct {
	*bufio.Scanner
	block  []byte   // readBlock assembles a body here
	fields []string // the current command line, split
}

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &lineReader{Scanner: sc}
}

// command splits the current line into its upper-cased verb and arguments.
// The arguments are valid until the next call: a verb that keeps one copies it.
func (r *lineReader) command() (cmd string, args []string) {
	r.fields = r.fields[:0]
	line := strings.TrimSpace(r.Text())
	for line != "" {
		end := strings.IndexFunc(line, unicode.IsSpace)
		if end < 0 {
			end = len(line)
		}
		r.fields = append(r.fields, line[:end])
		line = strings.TrimLeftFunc(line[end:], unicode.IsSpace)
	}
	if len(r.fields) == 0 {
		return "", nil
	}
	return strings.ToUpper(r.fields[0]), r.fields[1:]
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	var rc io.Reader = conn
	if s.IdleTimeout > 0 {
		rc = &idleConn{Conn: conn, idle: s.IdleTimeout}
	}
	r := newLineReader(rc)
	out := &countingWriter{w: conn}
	w := bufio.NewWriterSize(out, replyBufferSize)
	defer w.Flush()
	for r.Scan() {
		start, sent := time.Now(), out.n
		cmd, args := r.command()
		if cmd == "" {
			continue
		}
		s.commandsTotal.Add(1)
		// State-touching commands get a root span: the admit → forward →
		// apply → reply chain hangs off it, across processes in cluster mode.
		var sp trace.Active
		if name := spanNames[cmd]; name != "" {
			sp = s.Tracer.StartRoot(name)
		}
		var err error
		switch cmd {
		case "QUIT":
			fmt.Fprintf(w, "+OK bye\n")
			w.Flush()
			return
		case "STREAM", "LOAD", "EMIT", "ADVANCE", "REGISTER":
			err = s.cmdWrite(w, r, cmd, args, sp.Context())
		case "QUERY":
			err = s.cmdQuery(w, r)
		case "EXPLAIN":
			err = s.cmdExplain(w, r)
		case "POLL":
			err = s.cmdPoll(w, args)
		case "STATS":
			err = s.cmdStats(w)
		case "METRICS":
			err = s.cmdMetrics(w)
		case "CLUSTER":
			err = s.cmdCluster(w, args)
		case "HOME":
			err = s.cmdHome(w, args)
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		sp.EndErr(err)
		if err != nil {
			renderError(w, err)
		}
		w.Flush()
		s.observe(cmd, start, out.n-sent)
	}
	// Degrade gracefully on oversized input: tell the client why before
	// hanging up (the stream is unframed past this point, so the connection
	// cannot be salvaged).
	if errors.Is(r.Err(), bufio.ErrTooLong) {
		fmt.Fprintf(w, "-ERR line too long\n")
		w.Flush()
	}
}

// spanNames maps the commands that get a root span to the span's name.
var spanNames = map[string]string{
	"QUERY":    "server.query",
	"STREAM":   "server.stream",
	"LOAD":     "server.load",
	"EMIT":     "server.emit",
	"ADVANCE":  "server.advance",
	"REGISTER": "server.register",
}

// readBlock consumes lines until the "." terminator. The lines are gathered
// in the connection's buffer and converted once, so a block costs one
// allocation however many lines it has.
func (r *lineReader) readBlock() (string, error) {
	r.block = r.block[:0]
	for r.Scan() {
		line := r.Bytes()
		if t := bytes.TrimSpace(line); len(t) == 1 && t[0] == '.' {
			return string(r.block), nil
		}
		r.block = append(r.block, line...)
		r.block = append(r.block, '\n')
	}
	if err := r.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// cmdWrite serves the five write verbs in both modes: it reads the body a
// verb carries, executes the command, and renders the interpreter's reply.
func (s *Server) cmdWrite(w *bufio.Writer, r *lineReader, kind string, args []string, tc trace.Context) error {
	body := ""
	if kind == "LOAD" || kind == "EMIT" || kind == "REGISTER" {
		// Consume the payload before anything can fail, or a rejected command
		// would leave its lines to be parsed as commands.
		var err error
		if body, err = r.readBlock(); err != nil {
			return err
		}
	}
	reply, err := s.execWrite(tc, kind, args, body)
	if err != nil {
		if errors.Is(err, flow.ErrShed) {
			s.cEmitShed.Inc()
		}
		return err
	}
	fmt.Fprintf(w, "+OK %s\n", reply)
	return nil
}

// execWrite hands one write command to the one interpreter: directly on a
// standalone daemon, through the replicated op log in cluster mode (where the
// write authority and every replica run that same interpreter). Argument
// checking, parsing and the reply text are the interpreter's alone, so both
// modes answer alike. The only thing decided here is admission control at the
// ingest edge: the rate limiter admits or sheds a whole EMIT by its tuple
// count before anything is applied or replicated (a half-admitted EMIT would
// make the client's retry duplicate the admitted half), and refuses outright
// one larger than its burst, which no wait would admit. The body is parsed
// here only to count it, and only when a limiter is configured.
func (s *Server) execWrite(tc trace.Context, kind string, args []string, body string) (string, error) {
	if lim := s.emitLim; lim != nil && kind == "EMIT" {
		n, err := rdf.CountTuples(body)
		if err != nil {
			return "", err
		}
		if burst := lim.Burst(); float64(n) > burst {
			return "", fmt.Errorf("EMIT rate limit: %d tuples can never fit the %g-tuple burst; send smaller EMITs", n, burst)
		}
		if n > 0 && !lim.Allow(float64(n)) {
			return "", flow.Shed(fmt.Sprintf("EMIT rate limit (%d tuples)", n), lim.RetryAfter(float64(n)))
		}
	}
	if cb := s.clusterBackend(); cb != nil {
		return cb.ForwardTraced(tc, kind, args, body)
	}
	_, bare := cluster.SplitID(args)
	return cluster.ApplyVerb(s.eng, s.BufferResult, kind, bare, body)
}

func (s *Server) cmdQuery(w *bufio.Writer, r *lineReader) error {
	text, err := r.readBlock()
	if err != nil {
		return err
	}
	res, err := s.eng.Query(text)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK %d rows in %v\n", res.Len(), res.Latency.Round(time.Microsecond))
	// Each row is rendered once, into the writer's own free space when it
	// fits (Write of an AvailableBuffer slice copies nothing).
	res.AppendRows(w.AvailableBuffer(), nil, func(row []byte) []byte {
		w.Write(append(row, '\n'))
		return w.AvailableBuffer()
	})
	w.WriteString(".\n")
	return nil
}

// renderScratch is where BufferResult renders a firing before it copies the
// bytes into the one string the POLL buffer keeps. It is pooled because a
// firing's sink has no owner that serialises it: firings of different
// queries, and two firings of one query, run on whichever workers are free.
type renderScratch struct {
	block []byte
	ends  []int // ends[i] is where row i stops in block
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// defaultPollBuffer bounds the rows buffered per continuous query between
// POLLs unless Server.PollBuffer overrides it.
const defaultPollBuffer = 10000

func (s *Server) cmdExplain(w *bufio.Writer, r *lineReader) error {
	text, err := r.readBlock()
	if err != nil {
		return err
	}
	out, err := s.eng.Explain(text)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "+OK explain\n%s.\n", out)
	return nil
}

// BufferResult appends a continuous-query firing to name's POLL buffer —
// the sink REGISTER wires up. Exported so firings that do not originate in
// this server's own REGISTER reach the same buffers: cluster replication
// (cluster.Config.OnFire) and an engine recovered before the server existed
// (core.Recover's callback factory).
func (s *Server) BufferResult(name string, res *core.Result, f core.FireInfo) {
	// Render every "@<at> <row>" line into one scratch buffer before taking
	// the lock, make one string of it and hand out substrings: a firing costs
	// two allocations (the string and the row headers), not one per row. The
	// string lives as long as any of its rows is buffered, which PollBuffer
	// bounds.
	sc := renderPool.Get().(*renderScratch)
	block, ends := sc.block[:0], sc.ends[:0]
	var pbuf [24]byte
	prefix := append(strconv.AppendInt(append(pbuf[:0], '@'), int64(f.At), 10), ' ')
	block = res.AppendRows(block, prefix, func(block []byte) []byte {
		ends = append(ends, len(block))
		return block
	})
	rows := make([]string, len(ends))
	all, start := string(block), 0
	for i, end := range ends {
		rows[i], start = all[start:end], end
	}
	sc.block, sc.ends = block, ends
	renderPool.Put(sc)
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.results[name]
	if buf == nil {
		buf = &pollBuf{}
		s.results[name] = buf
		// Per-query cumulative drop series, labeled by query name.
		s.eng.Metrics().GaugeFunc(obs.Name("server_poll_dropped_rows", "query", name),
			func() int64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return buf.cumDropped
			})
	}
	buf.rows = append(buf.rows, rows...)
	buf.cumRows += int64(len(rows))
	limit := s.PollBuffer
	if limit <= 0 {
		limit = defaultPollBuffer
	}
	// Bounded buffer, drop-oldest: a lagging poller loses the stalest
	// windows first and learns how many went missing. Dropping costs the rows
	// dropped: their headers are cleared, so their strings can be collected,
	// and the slice steps past them. append moves the rest only when it
	// outgrows the array, a constant amortized per appended row.
	if over := len(buf.rows) - limit; over > 0 {
		clear(buf.rows[:over])
		buf.rows = buf.rows[over:]
		buf.dropped += over
		buf.cumDropped += int64(over)
	}
}

func (s *Server) cmdPoll(w *bufio.Writer, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: POLL <name>")
	}
	s.mu.Lock()
	var rows []string
	dropped := 0
	truncated := false
	if buf := s.results[args[0]]; buf != nil {
		rows, dropped = buf.rows, buf.dropped
		buf.rows, buf.dropped = nil, 0
		// A bounded POLL keeps the remainder buffered for the next POLL
		// (never dropped: truncation is pacing, not loss).
		if max := s.MaxPollRows; max > 0 && len(rows) > max {
			buf.rows = append(buf.rows[:0:0], rows[max:]...)
			rows = rows[:max]
			truncated = true
		}
	}
	s.mu.Unlock()
	if truncated {
		s.cPollTrim.Inc()
	}
	fmt.Fprintf(w, "+OK %d rows dropped %d\n", len(rows), dropped)
	for _, row := range rows {
		w.WriteString(row)
		w.WriteByte('\n')
	}
	w.WriteString(".\n")
	return nil
}

// StatsLine renders the one-line stats snapshot (the body of the STATS
// reply). Exported so cluster mode can feed each daemon's line into the
// CLUSTER STATS federation.
func (s *Server) StatsLine() string {
	mem := s.eng.Store().Memory()
	s.mu.Lock()
	dropped := s.droppedTotalLocked()
	var polled int64
	for _, buf := range s.results {
		polled += buf.cumRows
	}
	conns := int64(len(s.conns))
	s.mu.Unlock()
	return fmt.Sprintf("now=%d stable_sn=%d entries=%d values=%d rows=%d dropped=%d conns=%d",
		s.eng.Now(), s.eng.Coordinator().StableSN(), mem.Entries, mem.Values,
		polled, dropped, conns)
}

func (s *Server) cmdStats(w *bufio.Writer) error {
	line := s.StatsLine()
	// In cluster mode this line covers only the local replica; say so and
	// point at the federated view instead of letting it masquerade as
	// cluster-wide truth.
	if s.clusterBackend() != nil {
		line += " scope=local see=CLUSTER-STATS"
	}
	// One line, no "." terminator: clients read exactly one status line.
	fmt.Fprintf(w, "+OK %s\n", line)
	return nil
}

// cmdMetrics dumps the engine's registry in the Prometheus text format,
// terminated by "." like other multi-line responses.
func (s *Server) cmdMetrics(w *bufio.Writer) error {
	fmt.Fprintf(w, "+OK metrics\n")
	s.eng.Metrics().WritePrometheus(w)
	fmt.Fprintf(w, ".\n")
	return nil
}
