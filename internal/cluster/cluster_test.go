package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// engineNodes sizes every test replica's engine; it has nothing to do with
// how many daemons a test starts.
const engineNodes = 3

// daemon is one in-process stand-in for a wukongsd process: its own engine
// replica, its own TCP transport, its own cluster node.
type daemon struct {
	eng  *core.Engine
	tr   *wire.TCP
	node *Node

	mu    sync.Mutex
	fires map[string][][]string // cq name → firing row sets, in order
}

func (d *daemon) onFire(name string, res *core.Result, _ core.FireInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fires == nil {
		d.fires = make(map[string][][]string)
	}
	d.fires[name] = append(d.fires[name], res.Strings())
}

// enginePartitions is a Config hook that swaps in an engine of the given
// partition count.
func enginePartitions(t testing.TB, nodes int) func(*Config) {
	return func(c *Config) {
		c.Engine.Close()
		c.Engine = newEngineN(t, nodes)
	}
}

func (d *daemon) close() {
	if d.node != nil {
		d.node.Close()
	}
	if d.tr != nil {
		d.tr.Close()
	}
	if d.eng != nil {
		d.eng.Close()
	}
}

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	return newEngineN(t, engineNodes)
}

// newEngineN is newEngine with the given partition count.
func newEngineN(t testing.TB, nodes int) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Config{
		Nodes:          nodes,
		WorkersPerNode: 2,
		Metrics:        obs.NewRegistry(""),
	})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	return eng
}

func tcpConfig(self fabric.NodeID, faults *wire.Faults) wire.TCPConfig {
	return wire.TCPConfig{
		Self:             self,
		DialTimeout:      time.Second,
		CallTimeout:      500 * time.Millisecond,
		HeartbeatTimeout: 200 * time.Millisecond,
		ReconnectBase:    5 * time.Millisecond,
		ReconnectCap:     50 * time.Millisecond,
		Faults:           faults,
	}
}

func clusterConfig(tr *wire.TCP, self fabric.NodeID, eng *core.Engine, d *daemon) Config {
	return Config{
		Transport:         tr,
		Self:              self,
		Engine:            eng,
		OnFire:            d.onFire,
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           obs.NewRegistry(""),
		Tracer:            trace.New(trace.Config{SampleEvery: 1, Node: int(self)}),
	}
}

// startSeed brings up the rank-0 daemon.
func startSeed(t *testing.T, faults *wire.Faults) *daemon {
	t.Helper()
	d := &daemon{eng: newEngine(t)}
	tr, err := wire.ListenTCP("127.0.0.1:0", tcpConfig(SeedRank, faults), obs.NewRegistry(""))
	if err != nil {
		t.Fatalf("seed listen: %v", err)
	}
	d.tr = tr
	cfg := clusterConfig(tr, SeedRank, d.eng, d)
	cfg.SelfAddr = tr.Addr()
	node, err := NewSeed(cfg)
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	d.node = node
	return d
}

// joinDaemon brings up a member via the real bootstrap path: listen first,
// Discover a rank, wrap the listener in a transport, Join and replay.
// listenAddr "" picks an ephemeral port; a concrete address re-binds it (the
// restart path).
func joinDaemon(t *testing.T, seedAddr, listenAddr string) *daemon {
	t.Helper()
	return joinDaemonCfg(t, seedAddr, listenAddr, nil)
}

// seedData pushes a base graph, a stream, tuples, and a window advance
// through the cluster write path from the given daemon.
func seedData(t *testing.T, via *daemon) {
	t.Helper()
	if _, err := via.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatalf("STREAM: %v", err)
	}
	var triples strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&triples, "<u%d> <knows> <u%d> .\n", i, (i+1)%12)
	}
	reply, err := via.node.Forward("LOAD", nil, triples.String())
	if err != nil {
		t.Fatalf("LOAD: %v", err)
	}
	if reply != "loaded 12" {
		t.Fatalf("LOAD reply = %q", reply)
	}
	var tuples strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&tuples, "<u%d> <po> <t%d> . @%d\n", i, i%5, 10+i)
	}
	if _, err := via.node.Forward("EMIT", []string{"S"}, tuples.String()); err != nil {
		t.Fatalf("EMIT: %v", err)
	}
	if reply, err := via.node.Forward("ADVANCE", []string{"400"}, ""); err != nil || reply != "now 400" {
		t.Fatalf("ADVANCE = %q, %v", reply, err)
	}
}

// requireApplied blocks until d has applied seq, failing the test after 5 s.
func requireApplied(t *testing.T, d *daemon, seq uint64) {
	t.Helper()
	if !d.node.waitApplied(seq, 5*time.Second) {
		t.Fatalf("rank %d applied %d, never reached %d", d.node.Self(), d.node.Applied(), seq)
	}
}

// waitConverged blocks until every daemon has applied the latest op any of
// them has. The authority acks a forwarded op once it is durable, before its
// own apply, so the forwarding member can be an op ahead of it for a moment.
func waitConverged(t *testing.T, ds ...*daemon) {
	t.Helper()
	var want uint64
	for _, d := range ds {
		want = max(want, d.node.Applied())
	}
	for _, d := range ds {
		if !d.node.waitApplied(want, 5*time.Second) {
			state := make([]uint64, len(ds))
			for i, d := range ds {
				state[i] = d.node.Applied()
			}
			t.Fatalf("replicas did not converge to op %d: %v", want, state)
		}
	}
}

func TestClusterTCPReplicationAndRouting(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()

	// All writes enter through a member: they must relay to the seed and
	// replicate to everyone.
	seedData(t, d1)
	waitConverged(t, seed, d1, d2)

	// Every replica's engine answers identically.
	var want []string
	for i, d := range []*daemon{seed, d1, d2} {
		res, err := d.eng.Query(`SELECT ?X ?Y WHERE { ?X po ?Y }`)
		if err != nil {
			t.Fatalf("replica %d query: %v", i, err)
		}
		res.Sort()
		if i == 0 {
			want = res.Strings()
			if len(want) == 0 {
				t.Fatal("no rows on seed replica")
			}
		} else if !reflect.DeepEqual(res.Strings(), want) {
			t.Fatalf("replica %d diverged: %v vs %v", i, res.Strings(), want)
		}
	}

	// Reads are not this layer's business: the verbs that once carried them
	// between daemons are gone from the wire protocol.
	for _, verb := range []string{"QUERY", "SCATTER 0 3"} {
		_, err := seed.node.HandleCall(d1.node.Self(), []byte(verb+"\nSELECT ?X ?Y WHERE { ?X po ?Y }"))
		if err == nil || !strings.Contains(err.Error(), "unknown verb") {
			t.Fatalf("%s call = %v, want unknown verb", verb, err)
		}
	}

	// Continuous queries fire on every replica with identical rows.
	if reply, err := d2.node.Forward("REGISTER", nil,
		`REGISTER QUERY QC AS SELECT ?X ?Y FROM S [RANGE 300ms STEP 100ms] WHERE { GRAPH S { ?X po ?Y } }`); err != nil || reply != "registered QC" {
		t.Fatalf("REGISTER = %q, %v", reply, err)
	}
	if _, err := d2.node.Forward("ADVANCE", []string{"800"}, ""); err != nil {
		t.Fatalf("ADVANCE: %v", err)
	}
	waitConverged(t, seed, d1, d2)
	var base [][]string
	for i, d := range []*daemon{seed, d1, d2} {
		d.mu.Lock()
		fires := d.fires["QC"]
		d.mu.Unlock()
		if len(fires) == 0 {
			t.Fatalf("daemon %d: QC never fired", i)
		}
		if i == 0 {
			base = fires
		} else if !reflect.DeepEqual(fires, base) {
			t.Fatalf("daemon %d fired differently: %v vs %v", i, fires, base)
		}
	}
}

func TestClusterTCPKillAndRejoin(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	seedData(t, seed)
	waitConverged(t, seed, d1, d2)

	victim := d2.node.Self()
	victimAddr := d2.tr.Addr()

	// Kill the daemon (transport torn down = sockets reset, like kill -9).
	d2.close()

	// Survivors declare it dead on their own heartbeats.
	waitState(t, seed, victim, member.Dead)
	waitState(t, d1, victim, member.Dead)

	// Restart on the same address: Discover must hand back the same rank,
	// Join must replay the full oplog into the fresh engine.
	d2b := joinDaemon(t, seed.tr.Addr(), victimAddr)
	defer d2b.close()
	if d2b.node.Self() != victim {
		t.Fatalf("restart got rank %d, want %d", d2b.node.Self(), victim)
	}
	waitConverged(t, seed, d1, d2b)
	if got, want := d2b.node.Applied(), seed.node.Applied(); got != want {
		t.Fatalf("rejoined replica applied %d, seed at %d", got, want)
	}
	// Survivors see it alive again.
	waitState(t, d1, victim, member.Alive)
}

// Local reads rest on this: a write acked by a daemon is applied on that
// daemon, so the daemon's own engine answers it with no wait and no hop.
func TestReadYourWritesOnServingMember(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()

	if _, err := d1.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatalf("STREAM: %v", err)
	}
	for i := 1; i <= 200; i++ {
		tuple := fmt.Sprintf("<w%d> <po> <v%d> . @%d\n", i, i, 100*i-50)
		if _, err := d1.node.Forward("EMIT", []string{"S"}, tuple); err != nil {
			t.Fatalf("EMIT %d: %v", i, err)
		}
		if _, err := d1.node.Forward("ADVANCE", []string{fmt.Sprint(100 * i)}, ""); err != nil {
			t.Fatalf("ADVANCE %d: %v", i, err)
		}
		res, err := d1.eng.Query(fmt.Sprintf("SELECT ?Y WHERE { w%d po ?Y }", i))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := res.Strings(); len(got) != 1 || got[0] != fmt.Sprintf("v%d", i) {
			t.Fatalf("write %d acked on the member but its engine answers %v", i, got)
		}
	}
}

// Replication must converge even when the seed's outbound wire injects
// drops, duplicates, and corruption. Nothing on the broadcast retries: dups
// quarantine at the receiver, and a dropped or quarantined op leaves a gap
// that the member's next op or its anti-entropy tick repairs by SYNC. A
// damaged length prefix wedges its socket until the next round trip on it
// times out and drops it.
func TestClusterTCPReplicationUnderWireFaults(t *testing.T) {
	faults := wire.NewFaults(42, wire.FaultsConfig{
		DropProb:    0.15,
		DupProb:     0.10,
		CorruptProb: 0.05,
	})
	seed := startSeed(t, faults)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	d2 := joinDaemon(t, seed.tr.Addr(), "")
	defer d2.close()

	if _, err := seed.node.Forward("STREAM", []string{"S", "100"}, ""); err != nil {
		t.Fatalf("STREAM: %v", err)
	}
	ts := int64(100)
	for op := 0; op < 30; op++ {
		tuple := fmt.Sprintf("<u%d> <po> <t%d> . @%d\n", op%8, op%4, ts+int64(op))
		if _, err := seed.node.Forward("EMIT", []string{"S"}, tuple); err != nil {
			t.Fatalf("EMIT %d: %v", op, err)
		}
	}
	// Converge: keep advancing (new ops also trigger gap repair for any op
	// whose broadcast was lost outright). Gap repair can burn whole call
	// timeouts when the response path flaps, so the budget is generous.
	deadline := time.Now().Add(30 * time.Second)
	for d1.node.Applied() < seed.node.Applied() || d2.node.Applied() < seed.node.Applied() {
		if time.Now().After(deadline) {
			t.Fatalf("no convergence under faults: seed=%d d1=%d d2=%d (injected %+v)",
				seed.node.Applied(), d1.node.Applied(), d2.node.Applied(), faults.Stats())
		}
		ts += 100
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(ts)}, ""); err != nil {
			t.Fatalf("ADVANCE: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	st := faults.Stats()
	if st.Dropped+st.Dupped+st.Corrupted == 0 {
		t.Fatalf("injector idle (%+v); test proved nothing", st)
	}
	for i, d := range []*daemon{d1, d2} {
		res, err := d.eng.Query(`SELECT ?X ?Y WHERE { ?X po ?Y }`)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		seedRes, _ := seed.eng.Query(`SELECT ?X ?Y WHERE { ?X po ?Y }`)
		res.Sort()
		seedRes.Sort()
		if !reflect.DeepEqual(res.Strings(), seedRes.Strings()) {
			t.Fatalf("replica %d diverged under faults", i)
		}
	}
}

// A joiner's own MEMBER op is broadcast before the authority applies it, so
// the joiner is not yet one of its targets: the op reaches the joiner
// through the SYNC its join runs, and Join returns with it applied. Every
// later op reaches it exactly once, by broadcast: one send per op per
// member.
func TestJoinerGetsOwnMemberOpBySync(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	// No anti-entropy on the joiner: only a broadcast or its join's SYNC can
	// bring it an op.
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) { c.HeartbeatInterval = -1 })
	defer d1.close()
	joined := d1.node.Applied()
	if want := seed.node.Applied(); joined != want {
		t.Fatalf("Join returned at op %d, the authority is at %d", joined, want)
	}
	// Later ops are broadcast to the joiner on the same connection any
	// broadcast of its MEMBER op would have taken, and the joiner applies
	// them in arrival order, so once the last has applied, a second send of
	// any earlier op would have arrived and counted as a duplicate.
	const later = 5
	for i := 1; i <= later; i++ {
		if _, err := seed.node.Forward("ADVANCE", []string{fmt.Sprint(100 * i)}, ""); err != nil {
			t.Fatal(err)
		}
	}
	requireApplied(t, d1, joined+later)
	if got := counter(d1, "cluster_ops_synced_total"); got != int64(joined) {
		t.Fatalf("joiner took %d of its first %d ops by SYNC, want all", got, joined)
	}
	if got := counter(d1, "cluster_ops_duplicate_total"); got != 0 {
		t.Fatalf("joiner was sent %d ops it already had", got)
	}
	self := fmt.Sprintf("%d %s self", d1.node.Self(), d1.tr.Addr())
	if info := d1.node.Info(); !strings.Contains(strings.Join(info, "\n"), self) {
		t.Fatalf("joiner's member view %q lacks %q", info, self)
	}
}

// waitApplied wakes when another goroutine raises applied, and gives up at
// its timeout.
func TestWaitAppliedWakesOnRaise(t *testing.T) {
	n := &Node{appliedCh: make(chan struct{})}
	raise := func(seq uint64) {
		n.mu.Lock()
		n.setAppliedLocked(seq)
		n.mu.Unlock()
	}
	done := make(chan bool)
	go func() { done <- n.waitApplied(3, time.Hour) }()
	raise(2)
	raise(3)
	if !<-done {
		t.Fatal("waitApplied(3) gave up with applied at 3")
	}
	raise(1) // never lowers
	if got := n.Applied(); got != 3 {
		t.Fatalf("applied = %d after raising to 1, want 3", got)
	}
	if n.waitApplied(4, time.Millisecond) {
		t.Fatal("waitApplied(4) succeeded with applied at 3")
	}
}

// bigLoad is a LOAD body of at least size bytes: triples with 16 KiB object
// IRIs, so the op is large while the engine's work stays small.
func bigLoad(tag string, size int) string {
	pad := strings.Repeat("x", 16<<10)
	var b strings.Builder
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, "<%s-%d> <big> <%s-%d-%s> .\n", tag, i, tag, i, pad)
	}
	return b.String()
}

// TestForwardRefusesOpLargerThanAFrame: an op whose encoding cannot ride one
// wire frame is refused before it is sequenced, with the same plain,
// non-retryable error through the authority and through a member, and no
// replica moves. Sequenced, it would apply on the authority and then never
// reach a member: neither its broadcast nor a SYNC could carry it.
func TestForwardRefusesOpLargerThanAFrame(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	d1 := joinDaemon(t, seed.tr.Addr(), "")
	defer d1.close()
	seedData(t, d1)
	waitConverged(t, seed, d1)
	before := seed.node.Applied()

	body := bigLoad("huge", 17<<20)
	var texts []string
	for _, via := range []*daemon{seed, d1} {
		_, err := via.node.Forward("LOAD", nil, body)
		if !errors.Is(err, ErrOpTooLarge) || errors.Is(err, ErrUnavailable) {
			t.Fatalf("17 MiB LOAD via rank %d: err = %v, want ErrOpTooLarge alone", via.node.Self(), err)
		}
		if !strings.Contains(err.Error(), strconv.Itoa(wire.MaxPayload)) {
			t.Fatalf("refusal %q does not name the %d-byte limit", err, wire.MaxPayload)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Fatalf("authority and member refuse differently: %q vs %q", texts[0], texts[1])
	}
	if a, b := seed.node.Applied(), d1.node.Applied(); a != before || b != before {
		t.Fatalf("refused op moved applied: authority %d, member %d, want %d", a, b, before)
	}
	if _, err := d1.node.Forward("ADVANCE", []string{"900"}, ""); err != nil {
		t.Fatalf("write after the refusal: %v", err)
	}
	waitConverged(t, seed, d1)
	q := `SELECT ?X ?Y WHERE { ?X knows ?Y }`
	if want, got := queryRows(t, seed, q), queryRows(t, d1, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("replicas diverged: %v vs %v", got, want)
	}

	// The limit is exact: the largest op it admits, under the widest header,
	// still fits a traced SYNC reply; one byte more is refused.
	id, kind := "op-1", "LOAD"
	fill := strings.Repeat("x", wire.MaxPayload-opHeadroom-len(id)-len(kind))
	if err := checkOpSize(id, kind, nil, fill); err != nil {
		t.Fatalf("op at the limit refused: %v", err)
	}
	enc := encodeOp(math.MaxUint64, math.MaxUint64, id, kind, nil, fill)
	if n := len(strconv.Itoa(len(enc))) + 1 + len(enc) + trace.ContextSize; n > wire.MaxPayload {
		t.Fatalf("op at the limit needs a %d-byte SYNC frame", n)
	}
	if err := checkOpSize(id, kind, nil, fill+"x"); err == nil {
		t.Fatal("op one byte over the limit admitted")
	}
}

// TestJoinReplaysHistoryLargerThanAFrame: a joiner replays a history larger
// than one wire frame, over as many SYNC replies as it takes, and so does a
// member that resumes from its data directory (the same loop serves the
// takeover reconcile).
func TestJoinReplaysHistoryLargerThanAFrame(t *testing.T) {
	seed := startSeed(t, nil)
	defer seed.close()
	const loads = 24 // 24 MiB of history against a 16 MiB frame
	for i := 0; i < loads; i++ {
		if _, err := seed.node.Forward("LOAD", nil, bigLoad(fmt.Sprintf("b%d", i), 1<<20)); err != nil {
			t.Fatalf("LOAD %d: %v", i, err)
		}
	}
	dir := t.TempDir()
	d1 := joinDaemonCfg(t, seed.tr.Addr(), "", func(c *Config) {
		c.DataDir = dir
		c.NoSync = true
	})
	waitConverged(t, seed, d1)
	q := `SELECT ?X WHERE { ?X big ?Y }`
	want := queryRows(t, seed, q)
	if len(want) < loads {
		t.Fatalf("authority holds %d rows", len(want))
	}
	if got := queryRows(t, d1, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("joiner holds %d rows, authority %d", len(got), len(want))
	}

	addr, rank := d1.tr.Addr(), d1.node.Self()
	d1.close()
	d2 := resumeMember(t, addr, rank, seed.tr.Addr(), dir)
	defer d2.close()
	waitConverged(t, seed, d2)
	if got := queryRows(t, d2, q); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed member holds %d rows, authority %d", len(got), len(want))
	}
}
