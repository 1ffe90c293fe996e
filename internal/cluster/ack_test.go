package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oplog"
	"repro/internal/trace"
)

// fireGate holds every continuous-query firing a daemon applies while it is
// armed: the apply that fires stops inside OnFire until release.
type fireGate struct {
	armed   atomic.Bool
	entered chan struct{} // receives once a held firing has begun
	release chan struct{} // closed to let held firings through
	once    sync.Once
}

func newFireGate() *fireGate {
	return &fireGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

// wrap is a Config hook that puts the gate in front of the daemon's sink.
func (g *fireGate) wrap(c *Config) {
	sink := c.OnFire
	c.OnFire = func(name string, res *core.Result, fi core.FireInfo) {
		if g.armed.Load() {
			select {
			case g.entered <- struct{}{}:
			default:
			}
			<-g.release
		}
		sink(name, res, fi)
	}
}

func (g *fireGate) open() { g.once.Do(func() { close(g.release) }) }

// startGatedPair brings up a seed whose firings gate holds and one member,
// with a stream S, a base graph, sealed tuples and a continuous query QG
// over S registered through the member.
func startGatedPair(t *testing.T, gate *fireGate) (seed, d1 *daemon) {
	t.Helper()
	seed = startSeedCfg(t, gate.wrap)
	t.Cleanup(seed.close)
	t.Cleanup(gate.open) // a failed test must not leave the seed's apply held
	d1 = joinDaemon(t, seed.tr.Addr(), "")
	t.Cleanup(d1.close)
	seedData(t, d1)
	if reply, err := d1.node.Forward("REGISTER", nil,
		`REGISTER QUERY QG AS SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms] WHERE { GRAPH S { ?X po ?Y } }`); err != nil || reply != "registered QG" {
		t.Fatalf("REGISTER = %q, %v", reply, err)
	}
	if _, err := d1.node.Forward("EMIT", []string{"S"}, "<g1> <po> <h1> . @450\n<g2> <po> <h2> . @520\n"); err != nil {
		t.Fatalf("EMIT: %v", err)
	}
	waitConverged(t, seed, d1)
	return seed, d1
}

// forwardWithin runs one Forward through d and fails the test if it has not
// answered within 5 s.
func forwardWithin(t *testing.T, d *daemon, kind string, args []string) (string, error) {
	t.Helper()
	type result struct {
		reply string
		err   error
	}
	done := make(chan result, 1)
	go func() {
		reply, err := d.node.Forward(kind, args, "")
		done <- result{reply, err}
	}()
	select {
	case r := <-done:
		return r.reply, r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s %v through rank %d did not answer in 5 s", kind, args, d.node.Self())
		return "", nil
	}
}

// A forwarded write is acked once the authority has logged it: with the
// authority's apply held inside a firing, the member still answers its
// client, from its own apply, while the op is durable on the authority and
// not yet applied there. Released, the authority applies it and the two
// replicas fire and answer alike.
func TestForwardAckPrecedesAuthorityApply(t *testing.T) {
	gate := newFireGate()
	seed, d1 := startGatedPair(t, gate)

	gate.armed.Store(true)
	reply, err := forwardWithin(t, d1, "ADVANCE", []string{"800"})
	if err != nil || reply != "now 800" {
		t.Fatalf("ADVANCE through the member = %q, %v; want now 800", reply, err)
	}
	seq := d1.node.Applied()
	if got := d1.eng.Now(); got != 800 {
		t.Fatalf("the member acked before its own apply: now = %d", got)
	}
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the authority never began applying the op")
	}
	if last, applied := seed.node.dlog.Last(), seed.node.Applied(); last < seq || applied >= seq {
		t.Fatalf("authority log ends at %d and it applied %d; want the acked op %d logged, not applied", last, applied, seq)
	}

	gate.open()
	requireApplied(t, seed, seq)
	waitConverged(t, seed, d1)
	expectSameRows(t, "SELECT ?X ?Y WHERE { ?X po ?Y }", seed, d1)
	// One ADVANCE fires its windows concurrently, and the held ones go
	// through in any order: compare the firings as a set.
	want, got := firingSet(seed, "QG"), firingSet(d1, "QG")
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("QG fired %v on the member, %v on the authority", got, want)
	}
}

// firingSet returns the firings of cq that d delivered, each firing's rows
// sorted, in sorted order.
func firingSet(d *daemon, cq string) []string {
	var out []string
	for _, rows := range firings(d)[cq] {
		out = append(out, strings.Join(rows, ","))
	}
	slices.Sort(out)
	return out
}

// A refused write answers the same text through a member, which learns the
// refusal from its own apply, as on the authority, and each attempt moves
// every replica by exactly one seq.
func TestForwardedRefusalMatchesAuthority(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	all := []*daemon{seed, d1}
	body := "<a> <po> <b> . @250\n<c> <po> <d> . @150\n"
	viaMember := expectRefused(t, d1, all, "EMIT", []string{"S"}, body)
	viaAuthority := expectRefused(t, seed, all, "EMIT", []string{"S"}, body)
	if viaMember.Error() != viaAuthority.Error() {
		t.Fatalf("the member refuses %q, the authority %q", viaMember, viaAuthority)
	}
}

// An id= retry of a write acked early, while the authority is still
// applying it, waits for that apply and answers the cached reply: the op
// runs once.
func TestIDRetryAfterEarlyAck(t *testing.T) {
	gate := newFireGate()
	seed, d1 := startGatedPair(t, gate)

	gate.armed.Store(true)
	reply, err := forwardWithin(t, d1, "ADVANCE", []string{"800", "id=adv-1"})
	if err != nil || reply != "now 800" {
		t.Fatalf("ADVANCE = %q, %v; want now 800", reply, err)
	}
	seq := d1.node.Applied()
	retried := make(chan string, 1)
	go func() {
		reply, err := d1.node.Forward("ADVANCE", []string{"900", "id=adv-1"}, "")
		if err != nil {
			reply = err.Error()
		}
		retried <- reply
	}()
	time.Sleep(20 * time.Millisecond)
	gate.open()
	select {
	case got := <-retried:
		if got != "now 800" {
			t.Fatalf("retry answered %q, want the cached now 800", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the retry did not answer in 5 s")
	}
	waitConverged(t, seed, d1)
	for _, d := range []*daemon{seed, d1} {
		if got := d.node.Applied(); got != seq {
			t.Fatalf("rank %d applied %d, want %d: the retry was sequenced", d.node.Self(), got, seq)
		}
		if got := d.eng.Now(); got != 800 {
			t.Fatalf("rank %d now = %d, want 800", d.node.Self(), got)
		}
	}
}

// Once resultSlots later ops have applied, a member no longer holds its own
// answer for an acked op: it reports the op unavailable, and the op's id=
// retry answers the original reply from the dedup table without running
// again.
func TestEvictedResultIsUnavailable(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	reply, err := d1.node.Forward("ADVANCE", []string{"100", "id=evict-1"}, "")
	if err != nil || reply != "now 100" {
		t.Fatalf("ADVANCE = %q, %v", reply, err)
	}
	seq := d1.node.Applied()
	if got, err := d1.node.appliedResult(SeedRank, "ADVANCE", seq); err != nil || got != reply {
		t.Fatalf("fresh result = %q, %v; want %q", got, err, reply)
	}
	for i := 1; i <= resultSlots; i++ {
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(100 + i)}, ""); err != nil {
			t.Fatalf("ADVANCE %d: %v", i, err)
		}
	}
	waitConverged(t, seed, d1)
	_, err = d1.node.appliedResult(SeedRank, "ADVANCE", seq)
	var unavail *UnavailableError
	if !errors.As(err, &unavail) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("evicted result: err = %v, want an UnavailableError", err)
	}
	applied := d1.node.Applied()
	if got, err := d1.node.Forward("ADVANCE", []string{"5000", "id=evict-1"}, ""); err != nil || got != reply {
		t.Fatalf("id= retry = %q, %v; want the original %q", got, err, reply)
	}
	if got := d1.node.Applied(); got != applied {
		t.Fatalf("the retry was sequenced: applied %d -> %d", applied, got)
	}
}

// A forward that fails after the authority acked its op is not sent again,
// so an op with no id= token is sequenced once. Here the member cannot apply
// until the forward returns, so its wait for the acked op times out after
// forwardAckTimeout; the caller gets that failure, unavailable, which an id=
// retry would settle from the dedup table.
func TestForwardFailureAfterAckIsNotResent(t *testing.T) {
	seed, d1 := startPair(t, core.FlowConfig{})
	waitConverged(t, seed, d1)
	before := seed.node.Applied()
	d1.node.applyMu.Lock()
	reply, err := d1.node.Forward("LOAD", nil, "<x> <p> <y> .\n")
	d1.node.applyMu.Unlock()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("LOAD through a member that cannot apply = %q, %v; want unavailable", reply, err)
	}
	waitConverged(t, seed, d1)
	if got := seed.node.Applied(); got != before+1 {
		t.Fatalf("one LOAD moved the authority from op %d to %d", before, got)
	}
	// A LOAD after a sealed batch shows from the next stable snapshot.
	if _, err := seed.node.Forward("ADVANCE", []string{"600"}, ""); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, seed, d1)
	expectSameRows(t, "SELECT ?Y WHERE { x p ?Y }", seed, d1)
	if got := queryRows(t, seed, "SELECT ?Y WHERE { x p ?Y }"); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("the LOAD answers %v, want [y] once", got)
	}
}

// An authority that crashes after its flush and before its apply left the
// op in its log: Resume replays it, once. A LOAD run twice would answer its
// triple twice.
func TestResumeReplaysLoggedUnappliedOpOnce(t *testing.T) {
	dir := t.TempDir()
	seed := startSeedCfg(t, func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	seedData(t, seed)
	seq, _, apply, err := seed.node.sequence(trace.Context{}, "", "LOAD", nil, "<x> <p> <y> .\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := seed.node.Applied(); got != seq-1 {
		t.Fatalf("applied %d before the apply ran, want %d", got, seq-1)
	}
	// The crash: what the disk holds between the flush and the apply.
	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	apply()
	addr := seed.tr.Addr()
	seed.close()

	d := resumeMember(t, addr, SeedRank, "", crashed)
	defer d.close()
	// +1: the re-fencing EPOCH op.
	if got := d.node.Applied(); got != seq+1 {
		t.Fatalf("resumed applied = %d, want %d", got, seq+1)
	}
	// A LOAD after a sealed batch shows from the next stable snapshot.
	if _, err := d.node.Forward("ADVANCE", []string{"600"}, ""); err != nil {
		t.Fatal(err)
	}
	if got := queryRows(t, d, "SELECT ?Y WHERE { x p ?Y }"); !reflect.DeepEqual(got, []string{"y"}) {
		t.Fatalf("the logged LOAD answers %v after resume, want [y] once", got)
	}
}

// Close waits for the op in flight: closed straight after a member's ack,
// the authority has applied the op and logged it. After Close, a replicated
// op does not reach the closed log, and a write is refused.
func TestCloseWaitsForForwardedApply(t *testing.T) {
	dir := t.TempDir()
	seed := startSeedCfg(t, func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	seedData(t, d1)
	if reply, err := d1.node.Forward("ADVANCE", []string{"500"}, ""); err != nil || reply != "now 500" {
		t.Fatalf("ADVANCE = %q, %v", reply, err)
	}
	seq := d1.node.Applied()
	seed.node.Close()
	if got := seed.node.Applied(); got != seq {
		t.Fatalf("Close returned with applied %d, want the acked op %d", got, seq)
	}
	late := encodeOp(seq+1, seed.node.Epoch(), "", "ADVANCE", []string{"600"}, "")
	seed.node.HandleSend(d1.node.Self(), late)
	if _, err := seed.node.Forward("ADVANCE", []string{"700"}, ""); !errors.Is(err, errClosed) {
		t.Fatalf("a write on the closed authority: err = %v, want %v", err, errClosed)
	}

	log, err := oplog.Open(dir, oplog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if got := log.Last(); got != seq {
		t.Fatalf("the closed log ends at %d, want %d", got, seq)
	}
}
