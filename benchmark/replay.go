package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench/lsbench"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wire"
)

// replayed is what the in-process replay measured: spans around direct calls
// of each layer's public functions on the same scripted inputs (source P).
type replayed struct {
	spans []span

	readTupleNS      float64 // rdf.Reader.ReadTuple, per tuple
	streamEmitNS     float64 // stream.Source.Emit, per tuple
	emitOverheadUS   float64 // loopback server EMIT minus the two above, per tuple
	parseUS          []float64
	queryParsedUS    []float64 // selective probes, direct Engine.QueryParsed
	scanParsedUS     []float64 // scan probes, direct Engine.QueryParsed
	loopbackSelUS    []float64 // selective probes through server.Server over loopback
	pruneMidMS       float64
	pruneEndMS       float64
	storeReadNS      float64
	readsPerQuery    float64
	emitForwardedUS  []float64
	advForwardedUS   []float64
	wireBytesPerOp   float64
	frameCodecNS     float64
	wireCallUS       []float64
	appendSyncUS     []float64
	appendNoSyncUS   []float64
	oplogBytesPerTup float64
}

// ptrace records replay spans; Round is the parent round id.
type ptrace struct {
	epoch time.Time
	spans []span
	base  int // added to round ids so warm-up, measured and cluster rounds stay distinct
}

func (t *ptrace) time(name string, round int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s := t0.Sub(t.epoch).Nanoseconds()
	if round >= 0 {
		round += t.base
	}
	t.spans = append(t.spans, span{Name: name, Conn: "replay", Round: round, Req: len(t.spans) + 1, Start: s, End: s + d.Nanoseconds()})
	return d
}

func newEngine() (*core.Engine, error) {
	// The daemons' shape (-nodes 2 -workers 2), with a private registry so
	// two engines in one process do not share obs.Default.
	return core.New(core.Config{Nodes: 2, WorkersPerNode: 2, Metrics: obs.NewRegistry("")})
}

// emitBlock renders tuples the way client.Emit puts them on the wire.
func emitBlock(tuples []rdf.Tuple) string {
	var b strings.Builder
	rdf.WriteTuples(&b, tuples) // a strings.Builder never fails
	return b.String()
}

// replay re-runs the script in-process: one engine behind a server.Server on
// loopback, one engine driven through direct calls, and — for the cluster
// workload — two cluster nodes over loopback wire transports with durable
// oplogs, plus wire and oplog micro-measurements.
func replay(e env, sc *script) (*replayed, error) {
	r := &replayed{}
	tr := &ptrace{epoch: time.Now()}
	if err := replayStandalone(sc, r, tr); err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	if sc.spec.cluster {
		dir := filepath.Join(e.workDir, fmt.Sprintf("replay-%d", os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		onExit(func() { os.RemoveAll(dir) })
		defer os.RemoveAll(dir)
		if err := replayCluster(sc, dir, r, tr); err != nil {
			return nil, fmt.Errorf("in-process cluster replay: %w", err)
		}
		if err := measureWire(r, tr); err != nil {
			return nil, fmt.Errorf("wire measurement: %w", err)
		}
		if err := measureOplog(sc, dir, r, tr); err != nil {
			return nil, fmt.Errorf("oplog measurement: %w", err)
		}
	}
	r.spans = tr.spans
	return r, nil
}

func replayStandalone(sc *script, r *replayed, tr *ptrace) error {
	served, err := newEngine()
	if err != nil {
		return err
	}
	defer served.Close()
	direct, err := newEngine()
	if err != nil {
		return err
	}
	defer direct.Close()

	srv := server.New(served)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()

	for _, blk := range sc.blocks {
		if _, err := c.Load(blk); err != nil {
			return err
		}
		if _, err := direct.LoadReader(strings.NewReader(blk)); err != nil {
			return err
		}
	}
	streams := lsbench.Streams()
	sources := make([]*stream.Source, len(streams))
	for i, st := range lsbench.StreamConfigs() {
		if err := c.Stream(st.Name, st.BatchInterval, st.TimingPreds...); err != nil {
			return err
		}
		sources[i], err = direct.RegisterStream(stream.Config{Name: st.Name, BatchInterval: st.BatchInterval, TimingPredicates: st.TimingPreds})
		if err != nil {
			return err
		}
	}
	var cqNames []string
	for _, text := range sc.cqs {
		name, err := c.Register(text)
		if err != nil {
			return err
		}
		cqNames = append(cqNames, name)
		if _, err := direct.RegisterContinuous(text, func(*core.Result, core.FireInfo) {}); err != nil {
			return err
		}
	}

	var readTuple, streamEmit, loopEmit time.Duration
	var tuplesSeen, probesSeen int
	var reads int64
	// The engine's own GC has already pruned at this snapshot number, so the
	// direct call measures the walk over every key and nothing else; the
	// median of three keeps one collector pause out of the number.
	prune := func(round int) float64 {
		var ms []float64
		for i := 0; i < 3; i++ {
			d := tr.time("store.Sharded.PruneSnapshots", round, func() {
				direct.Store().PruneSnapshots(direct.Coordinator().StableSN())
			})
			ms = append(ms, float64(d)/float64(time.Millisecond))
		}
		return median(ms)
	}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	doProbe := func(p probe, id int, measured bool) {
		var q *sparql.Query
		dLoop := tr.time("server.QUERY", id, func() { _, err := c.Query(p.text); fail(err) })
		dParse := tr.time("sparql.Parse", id, func() { var err error; q, err = sparql.Parse(p.text); fail(err) })
		if q == nil {
			return
		}
		before := direct.Store().OpStats().Reads
		dExec := tr.time("core.Engine.QueryParsed", id, func() { _, err := direct.QueryParsed(q); fail(err) })
		if !measured {
			return
		}
		reads += direct.Store().OpStats().Reads - before
		probesSeen++
		r.parseUS = append(r.parseUS, float64(dParse)/float64(time.Microsecond))
		if p.class == probeScan {
			r.scanParsedUS = append(r.scanParsedUS, float64(dExec)/float64(time.Microsecond))
			return
		}
		r.queryParsedUS = append(r.queryParsedUS, float64(dExec)/float64(time.Microsecond))
		r.loopbackSelUS = append(r.loopbackSelUS, float64(dLoop)/float64(time.Microsecond))
	}
	run := func(rounds []round, measured bool) {
		for id := range rounds {
			rd := &rounds[id]
			if sc.spec.probesFirst {
				for _, p := range rd.probes {
					doProbe(p, id, measured)
				}
			}
			for si, name := range streams {
				tuples := sc.decode(rd.tick.emits[si])
				block := emitBlock(tuples)
				dRead := tr.time("rdf.Reader.ReadTuple", id, func() {
					reader := rdf.NewReader(strings.NewReader(block))
					for {
						if _, err := reader.ReadTuple(); err != nil {
							if err != io.EOF {
								fail(err)
							}
							return
						}
					}
				})
				dEmit := tr.time("stream.Source.Emit", id, func() {
					for _, tu := range tuples {
						fail(sources[si].Emit(tu))
					}
				})
				dLoop := tr.time("server.EMIT", id, func() { fail(c.Emit(name, tuples...)) })
				if measured {
					readTuple += dRead
					streamEmit += dEmit
					loopEmit += dLoop
					tuplesSeen += len(tuples)
				}
			}
			tr.time("core.Engine.AdvanceTo", id, func() { direct.AdvanceTo(rd.tick.now) })
			tr.time("server.ADVANCE", id, func() { _, err := c.Advance(rd.tick.now); fail(err) })
			for _, name := range cqNames {
				tr.time("server.POLL", id, func() { _, err := c.Poll(name); fail(err) })
			}
			if !sc.spec.probesFirst {
				for _, p := range rd.probes {
					doProbe(p, id, measured)
				}
			}
			if measured && id == len(rounds)/2 {
				r.pruneMidMS = prune(id)
			}
		}
	}
	run(sc.warm, false)
	tr.base = len(sc.warm)
	run(sc.rounds, true)
	if firstErr != nil {
		return firstErr
	}
	r.pruneEndMS = prune(len(sc.rounds) - 1)
	if tuplesSeen > 0 {
		n := float64(tuplesSeen)
		r.readTupleNS = float64(readTuple.Nanoseconds()) / n
		r.streamEmitNS = float64(streamEmit.Nanoseconds()) / n
		r.emitOverheadUS = float64((loopEmit - readTuple - streamEmit).Nanoseconds()) / n / 1000
	}
	if probesSeen > 0 {
		r.readsPerQuery = float64(reads) / float64(probesSeen)
	}

	// store.Sharded.Read on the keys the selective probes start from.
	ss := direct.StringServer()
	fo, ok := ss.LookupPredicate(lsbench.PredFollow)
	if !ok {
		return fmt.Errorf("predicate %s not interned", lsbench.PredFollow)
	}
	sn := direct.Coordinator().StableSN()
	const readLoops = 20
	d := tr.time("store.Sharded.Read", len(sc.rounds)-1, func() {
		for i := 0; i < readLoops; i++ {
			for u := 0; u < sc.w.Users(); u++ {
				vid, _ := ss.LookupEntity(rdf.NewIRI(sc.w.UserName(u)))
				_, err := direct.Store().Read(0, store.EdgeKey(vid, fo, store.Out), sn)
				fail(err)
			}
		}
	})
	r.storeReadNS = float64(d.Nanoseconds()) / float64(readLoops*sc.w.Users())
	return firstErr
}

// countingListener counts the bytes crossing every connection it accepts.
// Each wire connection is accepted by exactly one of the two nodes, so the
// two listeners together see every byte on the wire.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

const clusterNodes = 2

// replayCluster forwards the script's writes from a joined member to the
// seed, both in this process, over loopback wire transports with fsynced
// oplogs — the daemons' configuration without the line protocol.
func replayCluster(sc *script, dir string, r *replayed, tr *ptrace) error {
	var wireBytes atomic.Int64
	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		return countingListener{ln, &wireBytes}, nil
	}
	start := func(rank fabric.NodeID, ln net.Listener, seedAddr string) (*cluster.Node, func(), error) {
		eng, err := newEngine()
		if err != nil {
			return nil, nil, err
		}
		t, err := wire.NewTCP(ln, wire.TCPConfig{Self: rank, Nodes: clusterNodes}, eng.Metrics())
		if err != nil {
			eng.Close()
			return nil, nil, err
		}
		cfg := cluster.Config{
			Transport: t, Self: rank, Engine: eng, SelfAddr: ln.Addr().String(), SeedAddr: seedAddr,
			DataDir: filepath.Join(dir, fmt.Sprintf("node%d", rank)), SnapshotEvery: 1024, Metrics: eng.Metrics(),
		}
		var node *cluster.Node
		if seedAddr == "" {
			node, err = cluster.NewSeed(cfg)
		} else {
			node, err = cluster.Join(cfg)
		}
		if err != nil {
			t.Close()
			eng.Close()
			return nil, nil, err
		}
		return node, func() { node.Close(); t.Close(); eng.Close() }, nil
	}
	ln0, err := listen()
	if err != nil {
		return err
	}
	_, stopSeed, err := start(cluster.SeedRank, ln0, "")
	if err != nil {
		return err
	}
	defer stopSeed()
	ln1, err := listen()
	if err != nil {
		return err
	}
	rank, _, err := cluster.Discover(ln0.Addr().String(), ln1.Addr().String(), 10*time.Second)
	if err != nil {
		ln1.Close()
		return err
	}
	member, stopMember, err := start(fabric.NodeID(rank), ln1, ln0.Addr().String())
	if err != nil {
		return err
	}
	defer stopMember()

	for _, blk := range sc.blocks {
		if _, err := member.Forward("LOAD", nil, blk+"\n"); err != nil {
			return err
		}
	}
	for _, st := range lsbench.StreamConfigs() {
		args := append([]string{st.Name, fmt.Sprint(st.BatchInterval.Milliseconds())}, st.TimingPreds...)
		if _, err := member.Forward("STREAM", args, ""); err != nil {
			return err
		}
	}
	for _, text := range sc.cqs {
		if _, err := member.Forward("REGISTER", nil, text+"\n"); err != nil {
			return err
		}
	}
	streams := lsbench.Streams()
	ops := 0
	var bytesBefore int64
	run := func(rounds []round, measured bool) error {
		if measured {
			bytesBefore = wireBytes.Load()
		}
		for id := range rounds {
			rd := &rounds[id]
			for si, name := range streams {
				block := emitBlock(sc.decode(rd.tick.emits[si]))
				var err error
				d := tr.time("cluster.Node.Forward(EMIT)", id, func() { _, err = member.Forward("EMIT", []string{name}, block) })
				if err != nil {
					return err
				}
				if measured {
					r.emitForwardedUS = append(r.emitForwardedUS, float64(d)/float64(time.Microsecond))
					ops++
				}
			}
			var err error
			d := tr.time("cluster.Node.Forward(ADVANCE)", id, func() {
				_, err = member.Forward("ADVANCE", []string{fmt.Sprint(int64(rd.tick.now))}, "")
			})
			if err != nil {
				return err
			}
			if measured {
				r.advForwardedUS = append(r.advForwardedUS, float64(d)/float64(time.Microsecond))
				ops++
			}
		}
		return nil
	}
	total := len(sc.warm) + len(sc.rounds)
	tr.base = total
	if err := run(sc.warm, false); err != nil {
		return err
	}
	tr.base = total + len(sc.warm)
	if err := run(sc.rounds, true); err != nil {
		return err
	}
	if ops > 0 {
		r.wireBytesPerOp = float64(wireBytes.Load()-bytesBefore) / float64(ops)
	}
	return nil
}

// echo answers every call with its request.
type echo struct{}

func (echo) HandleSend(fabric.NodeID, []byte)                       {}
func (echo) HandleCall(_ fabric.NodeID, req []byte) ([]byte, error) { return req, nil }

// measureWire times the frame codec on a 1 KiB payload and an echo Call
// between two transports on loopback.
func measureWire(r *replayed, tr *ptrace) error {
	payload := bytes.Repeat([]byte{0x5a}, 1024)
	const codecLoops = 20000
	var codecErr error
	d := tr.time("wire.Encode+ReadFrame", -1, func() {
		for i := 0; i < codecLoops; i++ {
			buf := wire.Encode(&wire.Frame{Type: wire.TypeCall, From: 0, To: 1, Seq: uint64(i + 1), Payload: payload})
			if _, err := wire.ReadFrame(bytes.NewReader(buf)); err != nil {
				codecErr = err
				return
			}
		}
	})
	if codecErr != nil {
		return codecErr
	}
	r.frameCodecNS = float64(d.Nanoseconds()) / codecLoops

	var ts [clusterNodes]*wire.TCP
	for i := range ts {
		t, err := wire.ListenTCP("127.0.0.1:0", wire.TCPConfig{Self: fabric.NodeID(i), Nodes: clusterNodes}, obs.NewRegistry(""))
		if err != nil {
			return err
		}
		defer t.Close()
		t.SetHandler(fabric.NodeID(i), echo{})
		ts[i] = t
	}
	ts[0].SetPeer(1, ts[1].Addr())
	const calls = 2000
	for i := 0; i < calls; i++ {
		var err error
		d := tr.time("wire.TCP.Call", -1, func() { _, err = ts[0].Call(0, 1, payload) })
		if err != nil {
			return err
		}
		r.wireCallUS = append(r.wireCallUS, float64(d)/float64(time.Microsecond))
	}
	return nil
}

// measureOplog appends the script's EMIT bodies to a durable log with and
// without fsync: the difference is the fsync share of an acked write.
func measureOplog(sc *script, dir string, r *replayed, tr *ptrace) error {
	var payloads [][]byte
	tuples := 0
	for i := range sc.rounds {
		for si := range lsbench.Streams() {
			enc := sc.rounds[i].tick.emits[si]
			payloads = append(payloads, []byte(emitBlock(sc.decode(enc))))
			tuples += len(enc)
		}
		if len(payloads) >= 500 {
			break
		}
	}
	appendAll := func(sub string, noSync bool) ([]float64, error) {
		l, err := oplog.Open(filepath.Join(dir, sub), oplog.Options{NoSync: noSync})
		if err != nil {
			return nil, err
		}
		defer l.Close()
		var out []float64
		for i, p := range payloads {
			var err error
			d := tr.time("oplog.Log.Append("+sub+")", -1, func() { err = l.Append(uint64(i+1), p) })
			if err != nil {
				return nil, err
			}
			out = append(out, float64(d)/float64(time.Microsecond))
		}
		return out, nil
	}
	var err error
	if r.appendSyncUS, err = appendAll("sync", false); err != nil {
		return err
	}
	if r.appendNoSyncUS, err = appendAll("nosync", true); err != nil {
		return err
	}
	var size int64
	entries, err := os.ReadDir(filepath.Join(dir, "sync"))
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			size += info.Size()
		}
	}
	if tuples > 0 {
		r.oplogBytesPerTup = float64(size) / float64(tuples)
	}
	return nil
}
