package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench/harness"
	"repro/internal/core"
	"repro/internal/rdf"
)

// Ablations isolates the paper's individual design choices (DESIGN.md §4):
//
//   - Locality-aware stream-index replication (§4.2): continuous-query
//     latency with and without replicating indexes to query home nodes.
//     (The stream-index-vs-no-index ablation is Table 4's Wukong/Ext column.)
//   - Snapshot-plan cadence (§4.3): the staleness/flexibility trade-off —
//     how far one-shot visibility (Stable_SN) lags behind insertion as the
//     SN–VTS plan interval grows, and how plan publication counts shrink.
func Ablations(o Options) (*Report, error) {
	o = o.withDefaults()
	r := &Report{ID: "ablations", Title: "Design-choice ablations"}
	r.Table = &harness.Table{Header: []string{"Ablation", "Config", "Metric", "Value"}}

	// --- Stream-index replication --------------------------------------
	for _, replicate := range []bool{true, false} {
		cfg := engineConfig(o, o.Nodes)
		cfg.DisableIndexReplication = !replicate
		e, d, w, err := harness.LSBenchEngine(cfg, lsConfig(o))
		if err != nil {
			return nil, err
		}
		var cqs []*core.ContinuousQuery
		for n := 1; n <= 3; n++ {
			cq, err := e.RegisterContinuous(w.QueryL(n, 3), nil)
			if err != nil {
				e.Close()
				return nil, err
			}
			cqs = append(cqs, cq)
		}
		if err := d.Run(harness.LSBenchStep, warmTime); err != nil {
			e.Close()
			return nil, err
		}
		e.Fabric().ResetStats()
		var lats []time.Duration
		for _, cq := range cqs {
			for i := 0; i < o.Runs; i++ {
				_, lat, err := cq.ExecuteNow()
				if err != nil {
					e.Close()
					return nil, err
				}
				lats = append(lats, lat)
			}
		}
		reads := e.Fabric().Stats().RDMAReads
		name := "replicated"
		if !replicate {
			name = "not replicated"
		}
		r.Table.Add("index replication", name, "geo-mean latency (L1-L3)",
			harness.Ms(harness.GeoMean(lats))+" ms")
		r.Table.Add("index replication", name, "one-sided reads",
			fmt.Sprintf("%d", reads))
		e.Close()
	}

	// --- SN plan cadence -------------------------------------------------
	for _, cadence := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		cfg := engineConfig(o, o.Nodes)
		cfg.SNCadence = cadence
		e, d, _, err := harness.LSBenchEngine(cfg, lsConfig(o))
		if err != nil {
			return nil, err
		}
		// Stop mid-interval (2.95 s) so the visibility lag of coarse plans
		// is observable: fine plans track insertion batch by batch, coarse
		// plans publish visibility only at their cadence.
		if err := d.Run(harness.LSBenchStep, 2950); err != nil {
			e.Close()
			return nil, err
		}
		// Staleness: how far behind `now` the stable snapshot's newest
		// covered batch boundary is, in ms (PO batches are 100 ms).
		sn := e.Coordinator().StableSN()
		stableMS := rdf.Timestamp(int64(sn) * cadence.Milliseconds())
		lag := e.Now() - stableMS
		if lag < 0 {
			lag = 0
		}
		plans := e.Coordinator().RetainedPlans()
		r.Table.Add("SN cadence", cadence.String(), "one-shot staleness",
			fmt.Sprintf("%d ms", lag))
		r.Table.Add("SN cadence", cadence.String(), "retained plans",
			fmt.Sprintf("%d", len(plans)))
		e.Close()
	}
	r.Notes = append(r.Notes,
		"shape target: replication removes the extra index-lookup reads; larger SN cadence trades one-shot freshness for injector flexibility")
	return r, nil
}
