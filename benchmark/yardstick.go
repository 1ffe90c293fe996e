package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The yardstick measures how fast this host runs a server of wukongsd's kind
// right now, with fixed code that belongs to the benchmark and never changes
// with the system under test.
//
// Why it exists: on the shared 2-vCPU sandbox the same daemon, script and
// seed read 1.3-1.8x apart depending on what the neighbours are doing. The
// daemon's CPU time per operation inflates by the same factor, so it is the
// machine that is slower, not the run that is unlucky, and the drift lasts
// minutes — longer than any run, so no number of samples or medians inside
// one run removes it (interquartile spread over twelve runs: 0.10-0.35 of the
// median on every time metric). A compute kernel inside the driver does not
// feel it (tried: an L1-resident kernel moved 5 % while ticks moved 50 %):
// what slows down is what a server does — cross-process wake-ups over
// loopback, kernel TCP, the Go scheduler and collector, walks over maps much
// larger than the caches, fsync through the hypervisor. So the yardstick is a
// second, tiny server process doing exactly those things: the benchmark
// binary re-executed with -yardstick-server. The lead sends it one slice of
// requests after every round (closed loop, while the daemon is idle), and
// time metrics are reported scaled to the yardstick's frozen reference
// readings: time at reference speed. A change to the daemons cannot move the
// yardstick; a slower host moves both, and cancels (spread after scaling:
// 0.03-0.10).
//
// A slice is four "S" requests (follow a chain of map lookups and render
// rows: a selective probe's shape), one "L" (walk 20 000 entries of a 40 MB
// map under its write lock: ADVANCE's garbage-collection walk, bound by DRAM
// like the daemon's 100 MB heap, not by the shared last-level cache — a 5 MB
// map was tried and overreacted to the neighbours) and one "D" (append a
// record and fsync: one acked oplog append).

const (
	yardKeys      = 240_000 // map entries; with 16-word values about 40 MB, far past the caches
	yardWalk      = 20_000  // entries one large request visits
	yardValueLen  = 16
	yardChain     = 48 // lookups per small request
	yardRows      = 24 // rows rendered per small request
	yardSmallPerL = 4  // small requests per slice
)

// yardServer is the reference server's state.
type yardServer struct {
	mu   sync.RWMutex
	data map[uint64][]uint64
	gen  uint64

	log      *os.File // the durable-append request's file
	logBytes int
}

func newYardServer() *yardServer {
	s := &yardServer{data: make(map[uint64][]uint64, yardKeys)}
	x := uint64(88172645463325252)
	for k := uint64(0); k < yardKeys; k++ {
		v := make([]uint64, yardValueLen)
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = x % yardKeys
		}
		s.data[k] = v
	}
	return s
}

// small follows a chain of lookups from key and renders rows, like a
// selective one-shot: read-locked, allocation-heavy, a few dozen short lines.
func (s *yardServer) small(key uint64, w *bufio.Writer) {
	s.mu.RLock()
	rows := make([]string, 0, yardRows)
	k := key % yardKeys
	for i := 0; i < yardChain; i++ {
		v := s.data[k]
		k = v[i%yardValueLen]
		if i%(yardChain/yardRows) == 0 {
			rows = append(rows, fmt.Sprintf("user%d post%d", k, v[0]))
		}
	}
	s.mu.RUnlock()
	sort.Strings(rows)
	fmt.Fprintf(w, "+OK %d rows\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(w, "%s\n", r)
	}
	fmt.Fprintf(w, ".\n")
}

// large walks yardWalk entries under the write lock and rewrites one word of
// each value, like a snapshot prune over the store.
func (s *yardServer) large(w *bufio.Writer) {
	s.mu.Lock()
	s.gen++
	var touched int
	for _, v := range s.data { // starts at a random bucket every time
		if v[s.gen%yardValueLen] != s.gen {
			v[(s.gen+1)%yardValueLen] ^= 1
			touched++
		}
		if touched >= yardWalk {
			break
		}
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "+OK walked %d\n", touched)
}

// yardRecord is the size of a typical EMIT op.
var yardRecord = []byte(strings.Repeat("<user1> <li> <post1> . @100\n", 80))

// durable appends one record to the file and fsyncs it.
func (s *yardServer) durable(w *bufio.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logBytes > 4<<20 {
		s.log.Truncate(0)
		s.log.Seek(0, 0)
		s.logBytes = 0
	}
	n, err := s.log.Write(yardRecord)
	if err == nil {
		err = s.log.Sync()
	}
	s.logBytes += n
	if err != nil {
		fmt.Fprintf(w, "-ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "+OK synced %d\n", n)
}

// cpu reports the CPU time this process has used, in microseconds.
func (s *yardServer) cpu(w *bufio.Writer) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(w, "-ERR %v\n", err)
		return
	}
	us := (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec) + int64(ru.Stime.Usec)
	fmt.Fprintf(w, "+OK %d\n", us)
}

func yardLogPath(dir string, pid int) string {
	return filepath.Join(dir, fmt.Sprintf("yardstick-%d.log", pid))
}

// serveYardstick is the -yardstick-server mode: print the listen address,
// serve until standard input closes (the driver holds the other end, so the
// server cannot outlive it).
func serveYardstick(dir string) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s := newYardServer()
	if s.log, err = os.Create(yardLogPath(dir, os.Getpid())); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(ln.Addr().String())
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(c)
		}
	}()
	buf := make([]byte, 64)
	for {
		if _, err := os.Stdin.Read(buf); err != nil {
			return 0
		}
	}
}

func (s *yardServer) serve(c net.Conn) {
	defer c.Close()
	r := bufio.NewScanner(c)
	w := bufio.NewWriter(c)
	for r.Scan() {
		f := strings.Fields(r.Text())
		switch {
		case len(f) == 2 && f[0] == "S":
			var key uint64
			fmt.Sscan(f[1], &key)
			s.small(key, w)
		case len(f) == 1 && f[0] == "L":
			s.large(w)
		case len(f) == 1 && f[0] == "D":
			s.durable(w)
		case len(f) == 1 && f[0] == "C":
			s.cpu(w)
		default:
			fmt.Fprintf(w, "-ERR unknown request\n")
		}
		if w.Flush() != nil {
			return
		}
	}
}

// yardstick is the driver's handle on the reference server.
type yardstick struct {
	cmd     *exec.Cmd
	stdin   io.Closer // closing it tells the server to exit
	conn    net.Conn
	rd      *bufio.Scanner
	logPath string
	seq     uint64
	exited  chan struct{}
	once    sync.Once

	small, durable []time.Duration
	slices         int
	wall           time.Duration // time spent inside slices since the last take
	cpu0           int64         // the server's CPU µs at the last take
}

// startYardstick launches the reference server with its file under dir.
func startYardstick(dir string) (*yardstick, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	y := &yardstick{exited: make(chan struct{})}
	y.cmd = exec.Command(exe, "-yardstick-server", dir)
	y.cmd.Stderr = os.Stderr
	y.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := y.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	y.stdin = stdin
	stdout, err := y.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := y.cmd.Start(); err != nil {
		return nil, err
	}
	y.logPath = yardLogPath(dir, y.cmd.Process.Pid)
	go func() {
		y.cmd.Wait()
		close(y.exited)
	}()
	onExit(y.close)
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		y.close()
		return nil, fmt.Errorf("yardstick server did not report its address: %w", err)
	}
	if y.conn, err = net.DialTimeout("tcp", strings.TrimSpace(addr), 5*time.Second); err != nil {
		y.close()
		return nil, err
	}
	y.rd = bufio.NewScanner(y.conn)
	// Let the server's heap and caches settle before the first reading counts.
	for i := 0; i < 20; i++ {
		if err := y.slice(); err != nil {
			y.close()
			return nil, err
		}
	}
	if _, err := y.take(); err != nil {
		y.close()
		return nil, err
	}
	return y, nil
}

// close stops the reference server, waits until it has ended and removes
// its file.
func (y *yardstick) close() {
	y.once.Do(func() {
		if y.conn != nil {
			y.conn.Close()
		}
		y.stdin.Close()
		y.cmd.Process.Kill()
		<-y.exited
		os.Remove(y.logPath)
	})
}

// request sends one line and reads the reply: a status line, and for block
// replies the rows up to the "." terminator.
func (y *yardstick) request(line string, block bool) (string, time.Duration, error) {
	t0 := time.Now()
	if _, err := fmt.Fprintf(y.conn, "%s\n", line); err != nil {
		return "", 0, err
	}
	status := ""
	for y.rd.Scan() {
		if status == "" {
			status = y.rd.Text()
			if !strings.HasPrefix(status, "+OK") {
				return "", 0, fmt.Errorf("yardstick server: %s", status)
			}
		}
		if !block || y.rd.Text() == "." {
			return status, time.Since(t0), nil
		}
	}
	if err := y.rd.Err(); err != nil {
		return "", 0, err
	}
	return "", 0, fmt.Errorf("yardstick server closed the connection")
}

// slice takes one reading.
func (y *yardstick) slice() error {
	t0 := time.Now()
	y.conn.SetDeadline(t0.Add(30 * time.Second))
	for i := 0; i < yardSmallPerL; i++ {
		y.seq += 7919
		_, d, err := y.request(fmt.Sprintf("S %d", y.seq), true)
		if err != nil {
			return err
		}
		y.small = append(y.small, d)
	}
	if _, _, err := y.request("L", false); err != nil {
		return err
	}
	_, d, err := y.request("D", false)
	if err != nil {
		return err
	}
	y.durable = append(y.durable, d)
	y.slices++
	y.wall += time.Since(t0)
	return nil
}

// reading is what the yardstick saw over one phase.
type reading struct {
	slices  int
	wall    time.Duration // total time inside slices
	cpuUS   int64         // CPU time the reference server used
	smallUS float64       // median small request
	syncUS  float64       // median durable append
}

// take returns the reading since the last take and starts a new phase.
func (y *yardstick) take() (reading, error) {
	r := reading{slices: y.slices, wall: y.wall, smallUS: median(usOf(y.small)), syncUS: median(usOf(y.durable))}
	y.small, y.durable, y.slices, y.wall = nil, nil, 0, 0
	y.conn.SetDeadline(time.Now().Add(30 * time.Second))
	status, _, err := y.request("C", false)
	if err != nil {
		return r, err
	}
	var cpu int64
	if _, err := fmt.Sscanf(status, "+OK %d", &cpu); err != nil {
		return r, fmt.Errorf("yardstick server: bad CPU report %q", status)
	}
	r.cpuUS, y.cpu0 = cpu-y.cpu0, cpu
	return r, nil
}

// The yardstick's reference readings: what one slice costs on the reference
// host when its neighbours are quiet. They only fix the scale of the reported
// numbers (a reading equal to the reference leaves a metric unscaled); they
// are frozen with the round counts and must never be re-tuned alongside a
// change that claims a gain.
const (
	refCPUPerSliceUS  = 3600.0 // reference server CPU per slice
	refWallPerSliceUS = 4300.0 // mean wall time per slice
	refSmallUS        = 190.0  // median small request
	refSyncUS         = 850.0  // median durable append
)

// Three scale factors, each the ratio of this phase's reading to the
// reference; a time is divided by the one that matches what bounds it.

// cpuFactor scales everything bound by how fast the host executes server
// code: operation latencies, tick times, CPU per operation.
func (r reading) cpuFactor() float64 {
	return factor(float64(r.cpuUS)/float64(r.slices), refCPUPerSliceUS, r.slices)
}

// wallFactor scales wall-clock totals (set-up time). Mean wall time per
// slice, not a median: a host that stalls the vCPU for milliseconds at a time
// lengthens a long phase in proportion to its length, and only a sum is
// proportional.
func (r reading) wallFactor() float64 {
	return factor(float64(r.wall.Microseconds())/float64(r.slices), refWallPerSliceUS, r.slices)
}

// writeFactor scales the acked-write path: the geometric mean of the request
// and fsync factors, because an acked write is a request that may wait for
// the disk, and the hypervisor's I/O path slows down with its CPUs.
func (r reading) writeFactor() float64 {
	return math.Sqrt(factor(r.smallUS, refSmallUS, r.slices) * factor(r.syncUS, refSyncUS, r.slices))
}

// factor is reading/reference; 1 (no scaling) when the phase held no slice.
func factor(reading, reference float64, slices int) float64 {
	if slices == 0 || reading <= 0 {
		return 1
	}
	return reading / reference
}
