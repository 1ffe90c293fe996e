package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/member"
	"repro/internal/obs"
	"repro/internal/wire"
)

// clusterDaemon is an in-process stand-in for one clustered wukongsd: its own
// engine replica, TCP transport, cluster node and line-protocol server.
type clusterDaemon struct {
	tr   *wire.TCP
	node *cluster.Node
	srv  *Server
	addr string // line-protocol address
}

// startClusterDaemon brings up rank 0 (seedWire == "") or rank 1 of a
// two-daemon cluster over loopback TCP.
func startClusterDaemon(t *testing.T, seedWire string) *clusterDaemon {
	t.Helper()
	return startClusterDaemonFlow(t, seedWire, core.FlowConfig{})
}

// startClusterDaemonFlow is startClusterDaemon with the engine's overload
// knobs set.
func startClusterDaemonFlow(t *testing.T, seedWire string, flowCfg core.FlowConfig) *clusterDaemon {
	t.Helper()
	return startClusterDaemonEngine(t, seedWire, core.Config{Nodes: 2, Flow: flowCfg})
}

// startClusterDaemonEngine is startClusterDaemon with the engine built from
// engCfg.
func startClusterDaemonEngine(t *testing.T, seedWire string, engCfg core.Config) *clusterDaemon {
	t.Helper()
	engCfg.Metrics = obs.NewRegistry("")
	eng, err := core.New(engCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	self := cluster.SeedRank
	if seedWire != "" {
		self = 1
	}
	tr, err := wire.ListenTCP("127.0.0.1:0", wire.TCPConfig{
		Self:             self,
		HeartbeatTimeout: 200 * time.Millisecond,
		ReconnectBase:    5 * time.Millisecond,
		ReconnectCap:     50 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	srv, addr := serve(t, eng)
	cfg := cluster.Config{
		Transport:         tr,
		Self:              self,
		Engine:            eng,
		SelfAddr:          tr.Addr(),
		SeedAddr:          seedWire,
		OnFire:            srv.BufferResult,
		HeartbeatInterval: 20 * time.Millisecond,
	}
	d := &clusterDaemon{tr: tr, srv: srv, addr: addr}
	if seedWire == "" {
		d.node, err = cluster.NewSeed(cfg)
	} else {
		d.node, err = cluster.Join(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.node.Close)
	srv.SetCluster(d.node)
	return d
}

// A daemon is a replica: when the rank HOME names for an entity is dead, a
// survivor still answers a QUERY for that entity, from its own engine.
func TestClusterQuerySurvivesDeadHomeRank(t *testing.T) {
	seed := startClusterDaemon(t, "")
	d1 := startClusterDaemon(t, seed.tr.Addr())
	c := dial(t, seed.addr)

	var triples []string
	for i := 0; i < 12; i++ {
		triples = append(triples, fmt.Sprintf("<u%d> <po> <t%d> .", i, i))
	}
	c.send(append(append([]string{"LOAD"}, triples...), ".")...)
	expectOK(t, c.status())

	// Kill the member (transport torn down = sockets reset, like kill -9)
	// and wait for the seed's detector to say so.
	victim := d1.node.Self()
	d1.node.Close()
	d1.tr.Close()
	deadline := time.Now().Add(5 * time.Second)
	for seed.node.Detector().State(victim) != member.Dead {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d never declared dead", victim)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// HOME still reports placement, in the format benchmark/drive.go parses.
	entity := ""
	for i := 0; i < 12 && entity == ""; i++ {
		c.send(fmt.Sprintf("HOME u%d", i))
		switch st := c.status(); st {
		case fmt.Sprintf("+OK home=%d state=dead known=true", victim):
			entity = fmt.Sprintf("u%d", i)
		case fmt.Sprintf("+OK home=%d state=alive known=true", cluster.SeedRank):
		default:
			t.Fatalf("HOME u%d = %q", i, st)
		}
	}
	if entity == "" {
		t.Fatalf("no loaded entity is homed on the dead rank %d", victim)
	}
	c.send("HOME nobody")
	if st := c.status(); st != "+OK home=-1 state=unknown known=false" {
		t.Fatalf("HOME nobody = %q", st)
	}

	c.send("QUERY", fmt.Sprintf("SELECT ?Y WHERE { %s po ?Y }", entity), ".")
	st := c.status()
	expectOK(t, st)
	if rows := c.rows(); len(rows) != 1 || rows[0] != "t"+strings.TrimPrefix(entity, "u") {
		t.Fatalf("QUERY for %s (home rank %d is dead): %q rows %v", entity, victim, st, rows)
	}
}

// HOME names an engine partition, which need not be a member rank: a
// two-daemon cluster whose engines run four partitions answers HOME for an
// entity on partition 3 with state=unknown.
func TestHomeOnPartitionPastTheMembers(t *testing.T) {
	seed := startClusterDaemonEngine(t, "", core.Config{Nodes: 4})
	startClusterDaemonEngine(t, seed.tr.Addr(), core.Config{Nodes: 4})
	c := dial(t, seed.addr)

	var triples []string
	for i := 0; i < 32; i++ {
		triples = append(triples, fmt.Sprintf("<u%d> <po> <t%d> .", i, i))
	}
	c.send(append(append([]string{"LOAD"}, triples...), ".")...)
	expectOK(t, c.status())

	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		c.send(fmt.Sprintf("HOME u%d", i))
		st := c.status()
		switch st {
		case "+OK home=0 state=alive known=true", "+OK home=1 state=alive known=true",
			"+OK home=2 state=unknown known=true", "+OK home=3 state=unknown known=true":
			seen[st] = true
		default:
			t.Fatalf("HOME u%d = %q", i, st)
		}
	}
	if !seen["+OK home=3 state=unknown known=true"] {
		t.Fatalf("no loaded entity is homed on partition 3: %v", seen)
	}
}
