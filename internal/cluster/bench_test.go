package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkForwardedWrite times one write entering through a member: FWD to
// the authority, sequence, broadcast, the authority's fsynced append and
// ack, and the member's wait for its own apply; the authority applies its
// copy beside the ack. Seed and member
// talk over loopback wire.TCP and both fsync their oplogs, as the
// benchmark's mixed-cluster workload does. Every fifth EMIT is followed by
// an untimed ADVANCE, as in that workload's ticks, so pending tuples do not
// pile up.
func BenchmarkForwardedWrite(b *testing.B) {
	durable := func(c *Config) { c.DataDir = b.TempDir() }
	seed := startSeedCfg(b, durable)
	defer seed.close()
	d1 := joinDaemonCfg(b, seed.tr.Addr(), "", durable)
	defer d1.close()
	forward := func(b *testing.B, kind string, args []string, body string) {
		if _, err := d1.node.Forward(kind, args, body); err != nil {
			b.Fatalf("%s: %v", kind, err)
		}
	}
	forward(b, "STREAM", []string{"S", "100"}, "")
	now := int64(0) // the cluster clock, in ms
	advance := func(b *testing.B) {
		now += 100
		forward(b, "ADVANCE", []string{strconv.FormatInt(now, 10)}, "")
	}

	b.Run("emit33", func(b *testing.B) {
		bodies := make([]string, b.N)
		for i := range bodies {
			var sb strings.Builder
			ts := now + 100*int64(i/5+1) - 50 // inside the interval its tick seals
			for j := 0; j < 33; j++ {
				fmt.Fprintf(&sb, "<s%d> <po> <o%d> . @%d\n", j, (i*33+j)%997, ts)
			}
			bodies[i] = sb.String()
		}
		args := []string{"S"}
		b.ReportAllocs()
		b.ResetTimer()
		for i, body := range bodies {
			forward(b, "EMIT", args, body)
			if i%5 == 4 {
				b.StopTimer()
				advance(b)
				b.StartTimer()
			}
		}
		b.StopTimer()
		advance(b)
	})

	b.Run("advance", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			advance(b)
		}
	})
}
