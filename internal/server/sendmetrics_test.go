package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// sendSeries snapshots every flow_send_* and flow_breaker_* series in r.
func sendSeries(r *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	r.Each(func(name string, m obs.Metric) {
		if !strings.HasPrefix(name, "flow_send_") && !strings.HasPrefix(name, "flow_breaker_") {
			return
		}
		if v, ok := m.(interface{ Value() int64 }); ok {
			out[name] = v.Value()
		}
	})
	return out
}

// writeRounds registers stream S and drives rounds of EMIT + ADVANCE through
// c. Each EMIT spreads its subjects and objects over many entities, so every
// engine partition receives a share of every batch.
func writeRounds(t *testing.T, c *client, rounds int) {
	t.Helper()
	c.send("STREAM S 100")
	expectOK(t, c.status())
	for r := 1; r <= rounds; r++ {
		lines := []string{"EMIT S"}
		for i := 0; i < 16; i++ {
			lines = append(lines, fmt.Sprintf("<u%d> <po> <t%d> . @%d", i, r*16+i, (r-1)*100+i+1))
		}
		c.send(append(lines, ".")...)
		expectOK(t, c.status())
		c.send(fmt.Sprintf("ADVANCE %d", r*100))
		expectOK(t, c.status())
	}
}

// The flow_send_*/flow_breaker_* series describe cluster replication and
// nothing else: a standalone daemon's writes move none of them, however many
// engine partitions share out each batch, and in a cluster the authority's
// flow_send_ok_total counts exactly one send per sequenced op per member.
func TestSendSeriesCountOnlyReplication(t *testing.T) {
	reg := obs.NewRegistry("")
	eng, err := core.New(core.Config{Nodes: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	_, addr := serve(t, eng)
	before := sendSeries(reg)
	writeRounds(t, dial(t, addr), 5)
	if after := sendSeries(reg); !reflect.DeepEqual(before, after) {
		t.Fatalf("standalone writes moved send series:\nbefore %v\nafter  %v", before, after)
	}

	seed := startClusterDaemon(t, "")
	startClusterDaemon(t, seed.tr.Addr())
	sent := seed.eng.Metrics().Counter("flow_send_ok_total")
	sentBefore, seqBefore := sent.Value(), seed.node.Applied()
	writeRounds(t, dial(t, seed.addr), 5)
	ops := int64(seed.node.Applied() - seqBefore)
	if ops == 0 {
		t.Fatal("the writes sequenced no ops")
	}
	// One member besides the authority: one replication send per op.
	if got := sent.Value() - sentBefore; got != ops {
		t.Fatalf("flow_send_ok_total moved by %d over %d sequenced ops to one member", got, ops)
	}
}
