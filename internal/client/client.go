// Package client is the Go client library for a wukongsd server — the
// paper's client-side library (§3): it parses nothing itself but speaks the
// server's line protocol, letting applications load data, attach streams,
// drive the logical clock, and run one-shot or continuous queries remotely.
//
// A Client is a connection, not a session: the streams and continuous
// queries it registers live on the server, and a daemon that logs restores
// them from its op log after a restart (§5). Every request runs under an I/O deadline; a
// failed one is re-sent, byte for byte, under one retry budget — after the
// server's retry-after hint when it was shed or reported a peer unavailable,
// after a jittered exponential backoff and a redial when the connection
// died. LOAD, EMIT and REGISTER carry an id= token, and STREAM and ADVANCE
// are idempotent, so a daemon that logs applies a re-sent write once. Two
// re-sends are weaker than that:
//
//   - A daemon without a log drops id=, so a LOAD, REGISTER or EMIT re-sent
//     after its reply was lost may apply twice there.
//   - POLL drains the server's buffer before it writes the reply, so the rows
//     of a lost reply are gone, and the re-sent POLL returns only rows
//     buffered since.
//
// A server restarted without a log has forgotten the session: a request that
// names one of its streams or queries gets a ServerError.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/rdf"
)

// Options tunes connection management. The zero value picks the defaults
// noted on each field; negative values disable where noted.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// RequestTimeout is the I/O deadline applied to every request/response
	// exchange (default 10s; negative disables deadlines).
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed request is re-sent, whatever
	// failed it: an overload shed, a server-reported unavailability or a
	// dead connection all draw on the one budget (default 4; negative
	// disables retries).
	MaxRetries int
	// JitterSeed makes the backoff jitter deterministic when nonzero.
	JitterSeed int64
}

// A retry the server sent no hint for waits baseBackoff, doubled for each
// earlier retry of the request; no retry waits more than maxBackoff.
const (
	baseBackoff = 20 * time.Millisecond
	maxBackoff  = time.Second
)

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	return o
}

// ServerError is an application-level "-ERR" response. It means the server
// received and rejected the request, so it is never retried.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "client: server: " + e.Msg }

// ErrOverload is the base error for requests the server's admission control
// shed. Callers distinguish "the server is protecting itself" (back off and
// retry later) from a rejected request with errors.Is(err, ErrOverload).
var ErrOverload = errors.New("server overloaded")

// OverloadError carries the server's shed response and its backoff hint.
// Reconnecting would not help (the server is healthy, just saturated), so
// the client sleeps RetryAfter and retries on the same connection, within
// Options.MaxRetries, before surfacing this error.
type OverloadError struct {
	// RetryAfter is the server's hint: retrying sooner will almost certainly
	// be shed again.
	RetryAfter time.Duration
	Msg        string
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("client: %v: retry after %v: %s", ErrOverload, e.RetryAfter, e.Msg)
}

// Unwrap lets errors.Is(err, ErrOverload) see through the error.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// overloadPrefix is the machine-readable shed response the server writes.
const overloadPrefix = "-ERR overload retry-after="

// ErrUnavailable is the base error for requests that could not complete
// because the server (or, in cluster mode, one of its peers) was
// unreachable. Callers match with errors.Is(err, ErrUnavailable) instead of
// inspecting net.OpError / timeout internals.
var ErrUnavailable = errors.New("server unavailable")

// UnavailableError wraps a transport-level failure — a failed dial, a dead
// connection that outlasted the retry budget, or a server-reported
// "unavailable" (a cluster peer was unreachable). The underlying cause is
// preserved in Err for errors.Is/As, but callers should branch on
// ErrUnavailable rather than the raw network error.
type UnavailableError struct {
	Addr string
	Op   string // the protocol command, or "remote" for server-reported peer failures
	// RetryAfter is the server's backoff hint on "remote" failures (zero
	// when the server sent none): how long until a retry has a chance —
	// typically the window for a seed failover to fence in a successor.
	RetryAfter time.Duration
	Err        error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("client: %v: %s %s: %v", ErrUnavailable, e.Op, e.Addr, e.Err)
}

// Unwrap exposes both the ErrUnavailable sentinel and the underlying cause.
func (e *UnavailableError) Unwrap() []error { return []error{ErrUnavailable, e.Err} }

// unavailablePrefix is the server's typed peer-unreachable response; a
// "retry-after=<duration>" hint may follow the word "unavailable".
const unavailablePrefix = "-ERR unavailable"

// parseUnavailable decodes "-ERR unavailable: <reason>" and
// "-ERR unavailable retry-after=<duration>: <reason>".
func (c *Client) parseUnavailable(line string) (*UnavailableError, bool) {
	rest, ok := strings.CutPrefix(line, unavailablePrefix)
	if !ok {
		return nil, false
	}
	ue := &UnavailableError{Addr: c.addr, Op: "remote"}
	if hinted, ok := strings.CutPrefix(rest, " retry-after="); ok {
		durStr, msg, _ := strings.Cut(hinted, ":")
		if d, err := time.ParseDuration(strings.TrimSpace(durStr)); err == nil {
			ue.RetryAfter = d
		}
		rest = msg
	} else {
		rest = strings.TrimPrefix(rest, ":")
	}
	ue.Err = errors.New(strings.TrimSpace(rest))
	return ue, true
}

// parseOverload decodes "-ERR overload retry-after=<duration>: <reason>".
func parseOverload(line string) (*OverloadError, bool) {
	if !strings.HasPrefix(line, overloadPrefix) {
		return nil, false
	}
	rest := strings.TrimPrefix(line, overloadPrefix)
	durStr, msg, _ := strings.Cut(rest, ":")
	d, err := time.ParseDuration(strings.TrimSpace(durStr))
	if err != nil {
		return nil, false
	}
	return &OverloadError{RetryAfter: d, Msg: strings.TrimSpace(msg)}, true
}

var errClosed = errors.New("client: connection closed")

// Client is one protocol connection. Not safe for concurrent use — open one
// client per goroutine (the server handles many connections).
type Client struct {
	addr string
	opts Options
	rng  *rand.Rand

	conn   net.Conn // nil after a connection failure, until the next attempt dials
	r      *bufio.Scanner
	w      *bufio.Writer
	closed bool

	// opSession + opSeq mint the per-request id= tokens: a random session
	// tag (so two clients never collide) and a counter (so two ops from one
	// client never collide). Retries of one logical op reuse its token —
	// that is what makes a re-sent write exactly-once on a daemon that logs.
	opSession uint64
	opSeq     uint64

	// req is the EMIT request Emit renders, kept whole so a retry re-sends
	// the same bytes; reply is where rows gathers a reply's lines. Both are
	// reused from call to call, which the one-goroutine contract allows.
	req   []byte
	reply []byte
}

// appendOpID mints the exactly-once token for one logical mutating request
// and appends it to dst.
func (c *Client) appendOpID(dst []byte) []byte {
	c.opSeq++
	dst = strconv.AppendUint(dst, c.opSession, 16)
	dst = append(dst, '-')
	return strconv.AppendUint(dst, c.opSeq, 10)
}

// Dial connects to a wukongsd server with default Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a wukongsd server.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	seed := opts.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Client{addr: addr, opts: opts, rng: rand.New(rand.NewSource(seed))}
	c.opSession = uint64(c.rng.Int63())
	if err := c.dial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	c.r = sc
	c.w = bufio.NewWriter(conn)
	return nil
}

// Close sends QUIT (best effort) and closes the connection.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	c.w.WriteString("QUIT\n")
	c.w.Flush()
	return c.conn.Close()
}

// do runs one request exchange, fn, re-sending it up to MaxRetries times
// under one budget. A "-ERR" rejection is final. An overload shed or a
// server-reported unavailability (a write racing a seed failover,
// typically) reached a healthy server, so it sleeps the server's
// retry-after hint and re-sends on the same connection. Any other failure
// is the connection's: it sleeps a jittered exponential backoff, redials and
// re-sends. fn writes the same bytes every time, a mutating request's id=
// token included, so a daemon that logs applies the request once however
// often it arrives. A connection failure that outlasts the budget surfaces
// as an UnavailableError, never as a raw net.OpError.
func (c *Client) do(op string, fn func() error) error {
	for try := 0; ; try++ {
		if c.closed {
			return errClosed
		}
		err := c.attempt(fn)
		if err == nil {
			return nil
		}
		var se *ServerError
		var oe *OverloadError
		var ue *UnavailableError
		var hint time.Duration
		switch {
		case errors.As(err, &se):
			return err
		case errors.As(err, &oe):
			hint = oe.RetryAfter
		case errors.As(err, &ue):
			hint = ue.RetryAfter
		default:
			if c.conn != nil {
				c.conn.Close()
				c.conn = nil
			}
			err = &UnavailableError{Addr: c.addr, Op: op, Err: err}
		}
		if try >= c.opts.MaxRetries {
			return err
		}
		time.Sleep(c.backoff(try, hint))
	}
}

// attempt sends one request and reads its reply, dialing first when the last
// attempt left no connection.
func (c *Client) attempt(fn func() error) error {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return err
		}
	}
	if c.opts.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	}
	return fn()
}

// backoff is how long retry try waits: the server's hint when it sent one,
// else baseBackoff doubled per earlier retry, capped at maxBackoff either
// way; then lengthened by up to a quarter at random, so clients that failed
// together do not retry together and none retries before its hint.
func (c *Client) backoff(try int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = baseBackoff << min(try, 6)
	}
	d = min(d, maxBackoff)
	return d + time.Duration(c.rng.Int63n(int64(d/4)+1))
}

// send writes one command line and flushes it.
func (c *Client) send(line string) error {
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	return c.w.Flush()
}

// status reads "+OK ..." or turns "-ERR ..." into a ServerError.
func (c *Client) status() (string, error) {
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", err
		}
		return "", errClosed
	}
	line := c.r.Text()
	if oe, ok := parseOverload(line); ok {
		return "", oe
	}
	if ue, ok := c.parseUnavailable(line); ok {
		return "", ue
	}
	if strings.HasPrefix(line, "-ERR ") {
		return "", &ServerError{Msg: strings.TrimPrefix(line, "-ERR ")}
	}
	if !strings.HasPrefix(line, "+OK") {
		return "", fmt.Errorf("client: unexpected response %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, "+OK")), nil
}

// rows reads data lines until the "." terminator. The lines are gathered in
// the client's reply buffer and converted once, so a reply costs the same
// allocations however many rows it has; every row is a substring of that one
// string, which a kept row keeps alive.
func (c *Client) rows() ([]string, error) {
	b, n := c.reply[:0], 0
	for c.r.Scan() {
		line := c.r.Bytes()
		if len(line) == 1 && line[0] == '.' {
			c.reply = b
			if n == 0 {
				return nil, nil
			}
			out := make([]string, 0, n)
			for rest := string(b); rest != ""; {
				var row string
				row, rest, _ = strings.Cut(rest, "\n")
				out = append(out, row)
			}
			return out, nil
		}
		b = append(b, line...)
		b = append(b, '\n')
		n++
	}
	c.reply = b
	if err := c.r.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("client: missing terminator")
}

var errLoneDot = errors.New("client: block body may not contain a lone '.'")

// checkBlock rejects bodies the protocol cannot frame: one whose line, once
// trimmed, is the "." terminator.
func checkBlock(body string) error {
	for more := true; more; {
		var line string
		line, body, more = strings.Cut(body, "\n")
		if strings.TrimSpace(line) == "." {
			return errLoneDot
		}
	}
	return nil
}

// sendBlock writes a command line, its body and the "." terminator, and
// flushes once. The body goes out as one line per line of body, so a body
// ending in "\n" sends an empty last line and an empty body one empty line.
func (c *Client) sendBlock(cmd, body string) error {
	c.w.WriteString(cmd)
	c.w.WriteByte('\n')
	c.w.WriteString(body)
	c.w.WriteString("\n.\n")
	return c.w.Flush()
}

// parseReply reads the integer that follows prefix in a "+OK" reply, and
// quotes the reply in its error when there is none.
func parseReply(verb, prefix, st string) (int64, error) {
	if v, ok := strings.CutPrefix(st, prefix); ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n, nil
		}
	}
	return 0, fmt.Errorf("client: unexpected %s response %q", verb, st)
}

// Load sends N-Triples text and returns the number of triples loaded.
func (c *Client) Load(ntriples string) (int, error) {
	if err := checkBlock(ntriples); err != nil {
		return 0, err
	}
	var n int64
	cmd := string(c.appendOpID([]byte("LOAD id=")))
	err := c.do("LOAD", func() error {
		if err := c.sendBlock(cmd, ntriples); err != nil {
			return err
		}
		st, err := c.status()
		if err != nil {
			return err
		}
		n, err = parseReply("load", "loaded ", st)
		return err
	})
	return int(n), err
}

// Stream registers a stream with the given mini-batch interval and timing
// predicates.
func (c *Client) Stream(name string, interval time.Duration, timingPreds ...string) error {
	cmd := fmt.Sprintf("STREAM %s %d", name, interval.Milliseconds())
	if len(timingPreds) > 0 {
		cmd += " " + strings.Join(timingPreds, " ")
	}
	return c.do("STREAM", func() error {
		if err := c.send(cmd); err != nil {
			return err
		}
		_, err := c.status()
		return err
	})
}

// Emit pushes tuples into a stream. Every Emit carries a fresh id= token,
// reused across its own retries: a daemon that logs dedups on it, so a
// retried Emit lands exactly once; a daemon without a log drops the token,
// so there a retried Emit may land twice.
//
// The whole request — command line, one rendered line per tuple, terminator —
// is built in one pass into a buffer the client reuses, and written with one
// flush.
func (c *Client) Emit(stream string, tuples ...rdf.Tuple) error {
	b := append(c.req[:0], "EMIT "...)
	b = append(b, stream...)
	b = append(b, " id="...)
	b = c.appendOpID(b)
	b = append(b, '\n')
	for _, tu := range tuples {
		start := len(b)
		b = rdf.AppendTuple(b, tu)
		// A rendered tuple starts with a term and ends with its timestamp,
		// so only one with a newline inside can hold a lone ".".
		if bytes.IndexByte(b[start:], '\n') >= 0 {
			if err := checkBlock(string(b[start:])); err != nil {
				return err
			}
		}
		b = append(b, '\n')
	}
	if len(tuples) == 0 {
		b = append(b, '\n') // an empty body is one empty line
	}
	b = append(b, ".\n"...)
	c.req = b
	return c.do("EMIT", func() error {
		c.w.Write(b)
		if err := c.w.Flush(); err != nil {
			return err
		}
		_, err := c.status()
		return err
	})
}

// Advance drives the server's logical clock and returns the new time.
func (c *Client) Advance(ts rdf.Timestamp) (rdf.Timestamp, error) {
	var now int64
	cmd := "ADVANCE " + strconv.FormatInt(int64(ts), 10)
	err := c.do("ADVANCE", func() error {
		if err := c.send(cmd); err != nil {
			return err
		}
		st, err := c.status()
		if err != nil {
			return err
		}
		now, err = parseReply("advance", "now ", st)
		return err
	})
	return rdf.Timestamp(now), err
}

// Query runs a one-shot query and returns its rows as space-joined strings.
func (c *Client) Query(text string) ([]string, error) {
	return c.block("QUERY", text)
}

// Explain returns the server's plan description for a query.
func (c *Client) Explain(text string) ([]string, error) {
	return c.block("EXPLAIN", text)
}

func (c *Client) block(cmd, text string) ([]string, error) {
	if err := checkBlock(text); err != nil {
		return nil, err
	}
	var out []string
	err := c.do(cmd, func() error {
		if err := c.sendBlock(cmd, text); err != nil {
			return err
		}
		if _, err := c.status(); err != nil {
			return err
		}
		var err error
		out, err = c.rows()
		return err
	})
	return out, err
}

// Register registers a continuous query and returns its name for Poll.
func (c *Client) Register(text string) (string, error) {
	if err := checkBlock(text); err != nil {
		return "", err
	}
	var name string
	cmd := string(c.appendOpID([]byte("REGISTER id=")))
	err := c.do("REGISTER", func() error {
		if err := c.sendBlock(cmd, text); err != nil {
			return err
		}
		st, err := c.status()
		if err != nil {
			return err
		}
		fields := strings.Fields(st)
		if len(fields) != 2 || fields[0] != "registered" {
			return fmt.Errorf("client: unexpected register response %q", st)
		}
		name = fields[1]
		return nil
	})
	return name, err
}

// FireRow is one buffered continuous-query result row.
type FireRow struct {
	At  rdf.Timestamp
	Row string
}

// Poll drains a continuous query's buffered results. name is the name
// Register returned.
func (c *Client) Poll(name string) ([]FireRow, error) {
	var raw []string
	err := c.do("POLL", func() error {
		if err := c.send("POLL " + name); err != nil {
			return err
		}
		if _, err := c.status(); err != nil {
			return err
		}
		var err error
		raw, err = c.rows()
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]FireRow, 0, len(raw))
	for _, line := range raw {
		fr := FireRow{Row: line}
		if strings.HasPrefix(line, "@") {
			if sp := strings.IndexByte(line, ' '); sp > 0 {
				if at, err := strconv.ParseInt(line[1:sp], 10, 64); err == nil {
					fr.At = rdf.Timestamp(at)
					fr.Row = line[sp+1:]
				}
			}
		}
		out = append(out, fr)
	}
	return out, nil
}

// Stats returns the server's one-line status summary.
func (c *Client) Stats() (string, error) {
	var st string
	err := c.do("STATS", func() error {
		if err := c.send("STATS"); err != nil {
			return err
		}
		var err error
		st, err = c.status()
		return err
	})
	return st, err
}

// Metrics returns the server's metric registry as Prometheus text lines.
func (c *Client) Metrics() ([]string, error) {
	var out []string
	err := c.do("METRICS", func() error {
		if err := c.send("METRICS"); err != nil {
			return err
		}
		if _, err := c.status(); err != nil {
			return err
		}
		var err error
		out, err = c.rows()
		return err
	})
	return out, err
}
