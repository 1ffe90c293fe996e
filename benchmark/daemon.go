package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanup is the process-wide list of things to undo on every exit path:
// normal return, failure, deadline abort and signals all run it.
var cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanup.mu.Lock()
	cleanup.fns = append(cleanup.fns, fn)
	cleanup.mu.Unlock()
}

func runCleanup() {
	cleanup.mu.Lock()
	fns := cleanup.fns
	cleanup.fns = nil
	cleanup.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDaemon compiles cmd/wukongsd into dir (untimed) and returns the binary.
func buildDaemon(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "wukongsd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/wukongsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/wukongsd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned wukongsd process.
type daemon struct {
	rank    int
	addr    string // client line protocol
	wire    string // cluster wire address ("" standalone)
	metrics string // -metrics-addr ("" unless traced)
	cmd     *exec.Cmd
	out     *bytes.Buffer
	exited  chan struct{}
	once    sync.Once
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon and waits until it has ended.
func (d *daemon) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
}

// freeAddr reserves a loopback port by binding :0 and closing it. Another
// process can take the port before the daemon binds it; spawn retries then.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemonOpts is what varies between the daemons a workload starts.
type daemonOpts struct {
	rank     int
	cluster  bool
	joinWire string // seed's wire address for the member
	dataDir  string
	traced   bool
}

// spawn starts one daemon with production defaults (nothing pinned, no GOGC
// or GOMAXPROCS override) and returns once its client port accepts a
// connection. A daemon that exits before that lost a bind race: new ports are
// drawn and it is started again.
func spawn(bin string, o daemonOpts) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		d, err := spawnOnce(bin, o)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func spawnOnce(bin string, o daemonOpts) (*daemon, error) {
	d := &daemon{rank: o.rank, out: &bytes.Buffer{}, exited: make(chan struct{})}
	var err error
	if d.addr, err = freeAddr(); err != nil {
		return nil, err
	}
	sample := "0"
	if o.traced {
		sample = "1"
	}
	args := []string{"-addr", d.addr, "-nodes", "2", "-workers", "2", "-trace-sample", sample}
	if o.traced {
		if d.metrics, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-metrics-addr", d.metrics)
	}
	if o.cluster {
		if d.wire, err = freeAddr(); err != nil {
			return nil, err
		}
		// -cluster-heartbeat is the one production default the benchmark
		// overrides. The heartbeat ticker's pings and anti-entropy calls share
		// the member's wire connection with the lead's forwarded calls;
		// wire.TCP takes a frame's sequence number before it takes the
		// connection's write lock, so two writers can put frames on the
		// socket out of order, and the receiver drops the late one as a
		// replay. The lost call then sits out the 5 s call timeout and a
		// forwarded one-shot fails. With the default 100 ms heartbeat that hit
		// about one run in seven; with one serial writer per direction it
		// cannot happen. See README.md, "Baseline findings".
		args = append(args, "-listen", d.wire, "-data-dir", o.dataDir, "-snapshot-every", "1024",
			"-cluster-heartbeat", "1h")
		if o.joinWire != "" {
			args = append(args, "-join", o.joinWire)
		}
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	// The daemon must not outlive the driver even if the driver is SIGKILLed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	onExit(d.kill)

	// Readiness: dial until the client port answers. The back-off only
	// yields the CPU to the starting daemon; set-up time is dominated by the
	// fixed warm-up work, not by this loop.
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			c.Close()
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("wukongsd rank %d exited during start-up:\n%s", o.rank, d.out.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("wukongsd rank %d not ready after 20s:\n%s", o.rank, d.out.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// procCPU returns the user and system CPU seconds a process has used so far.
func procCPU(pid int) (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may contain spaces; fields are counted after its ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return ut / clkTck, st / clkTck, nil
}

// procHWM returns a process's peak resident set size in MB (VmHWM).
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCounters is the noise canary's raw reading: total and stolen jiffies
// from /proc/stat and the cumulative "some" CPU pressure stall in µs.
type hostCounters struct {
	total, steal float64
	psiSomeUS    float64
	at           time.Time
}

func readHost() hostCounters {
	h := hostCounters{at: time.Now()}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			v, _ := strconv.ParseFloat(f[i], 64)
			if i <= 8 { // user..steal; guest time is already inside user
				h.total += v
			}
			if i == 8 {
				h.steal = v
			}
		}
	}
	if b, err := os.ReadFile("/proc/pressure/cpu"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "some ") {
				continue
			}
			if i := strings.Index(line, "total="); i >= 0 {
				h.psiSomeUS, _ = strconv.ParseFloat(strings.TrimSpace(line[i+6:]), 64)
			}
		}
	}
	return h
}

// canary turns two host readings into the share of CPU time stolen by the
// hypervisor and the share of wall time some task waited for a CPU.
func canary(a, b hostCounters) (stealRatio, psiRatio float64) {
	if dt := b.total - a.total; dt > 0 {
		stealRatio = (b.steal - a.steal) / dt
	}
	if wall := b.at.Sub(a.at); wall > 0 {
		psiRatio = (b.psiSomeUS - a.psiSomeUS) / float64(wall.Microseconds())
	}
	return stealRatio, psiRatio
}
