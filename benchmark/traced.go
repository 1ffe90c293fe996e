package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// perLayer lists every per-layer metric of the traced run. Source C is a
// client-side span around the internal/client call, M the delta of the
// daemon's existing METRICS registry over the measured phase, P a span around
// a direct in-process call of the layer's public function on the same
// scripted inputs. They have no bound; README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{name: "client.emit_p50_us", unit: "us", better: "lower"},                  // C: EMIT send to ack
	{name: "client.advance_p50_us", unit: "us", better: "lower"},               // C: ADVANCE send to reply (seal+inject+fire+GC)
	{name: "client.poll_p50_us", unit: "us", better: "lower"},                  // C: POLL send to last row
	{name: "client.query_hot_p50_us", unit: "us", better: "lower"},             // C: selective probes starting in the 64-user hot set
	{name: "client.query_cold_p50_us", unit: "us", better: "lower"},            // C: selective probes starting at a uniformly drawn user
	{name: "client.query_local_p50_us", unit: "us", better: "lower"},           // C: selective probes whose owner (HOME) is the connected member; 0 standalone
	{name: "client.query_forwarded_p50_us", unit: "us", better: "lower"},       // C: selective probes forwarded to the owner; 0 standalone
	{name: "cluster.forward_hop_p50_us", unit: "us", better: "lower"},          // C: forwarded minus local p50; 0 standalone
	{name: "client.stalls_over_1s", unit: "count", better: "lower"},            // C: ops that took over 1 s
	{name: "cluster.call_timeouts", unit: "count", better: "lower"},            // C: ops that sat out the 5 s wire call timeout
	{name: "client.load_ktriples_per_s", unit: "ktriples/s", better: "higher"}, // C: static LOAD throughput in 5000-triple blocks
	{name: "client.span_coverage_ratio", unit: "ratio", better: "higher"},      // C: lead op spans / lead wall time

	{name: "rdf.read_tuple_ns", unit: "ns", better: "lower"},                 // P: rdf.Reader.ReadTuple per tuple
	{name: "stream.emit_ns_per_tuple", unit: "ns", better: "lower"},          // P: stream.Source.Emit per tuple
	{name: "server.emit_overhead_us_per_tuple", unit: "us", better: "lower"}, // P: loopback server EMIT minus ReadTuple and Source.Emit, per tuple
	{name: "sparql.parse_p50_us", unit: "us", better: "lower"},               // P: sparql.Parse of a probe
	{name: "core.query_parsed_p50_us", unit: "us", better: "lower"},          // P: Engine.QueryParsed, selective probes
	{name: "core.scan_parsed_p50_us", unit: "us", better: "lower"},           // P: Engine.QueryParsed, scan probes
	{name: "server.query_overhead_p50_us", unit: "us", better: "lower"},      // P: in-process server over loopback minus the direct Engine.QueryParsed call

	{name: "core.stage_advance_ms_per_tick", unit: "ms", better: "lower"},        // M: stage_advance sum / ticks
	{name: "core.stage_inject_ms_per_tick", unit: "ms", better: "lower"},         // M: stage_inject sum / ticks
	{name: "core.stage_index_ms_per_tick", unit: "ms", better: "lower"},          // M: stage_index sum / ticks
	{name: "core.stage_dispatch_ms_per_tick", unit: "ms", better: "lower"},       // M: stage_dispatch sum / ticks
	{name: "core.stage_trigger_ms_per_tick", unit: "ms", better: "lower"},        // M: stage_trigger sum / ticks
	{name: "core.stage_execute_ms_per_tick", unit: "ms", better: "lower"},        // M: stage_execute sum / ticks
	{name: "core.stage_gc_ms_per_tick", unit: "ms", better: "lower"},             // M: stage_gc sum / ticks
	{name: "core.advance_stage_coverage_ratio", unit: "ratio", better: "higher"}, // M/C: stage_advance mean / client.advance mean

	{name: "store.prune_scan_ms", unit: "ms", better: "lower"},      // P: direct Sharded.PruneSnapshots at end-of-script state
	{name: "store.prune_scan_mid_ms", unit: "ms", better: "lower"},  // P: direct Sharded.PruneSnapshots at mid-script state
	{name: "store.read_ns", unit: "ns", better: "lower"},            // P: Sharded.Read of a user's follow list
	{name: "store.reads_per_query", unit: "count", better: "lower"}, // P: store reads per direct Engine.QueryParsed

	{name: "stream.inject_ns_per_tuple", unit: "ns", better: "lower"}, // M: stream_inject_ns_total / tuples
	{name: "sindex.index_ns_per_tuple", unit: "ns", better: "lower"},  // M: stream_index_ns_total / tuples
	{name: "vts.prefix_wait_p50_us", unit: "us", better: "lower"},     // M: vts_prefix_wait_ns histogram median

	{name: "core.cq_delta_firing_ratio", unit: "ratio", better: "higher"}, // M: delta firings / executions
	{name: "core.cq_rows_per_tick", unit: "count", better: "higher"},      // M: cq_rows_total / ticks
	{name: "exec.plan_inplace_ratio", unit: "ratio", better: "higher"},    // M: in-place plans / all plans

	{name: "store.keys", unit: "count", better: "lower"},            // M: store_entries at the end
	{name: "store.value_bytes", unit: "bytes", better: "lower"},     // M: store_value_bytes at the end
	{name: "sindex.bytes", unit: "bytes", better: "lower"},          // M: sum of sindex_bytes at the end
	{name: "tstore.bytes", unit: "bytes", better: "lower"},          // M: sum of tstore_bytes at the end
	{name: "oplog.bytes_per_tuple", unit: "bytes", better: "lower"}, // P: durable log bytes per appended tuple; 0 standalone

	{name: "cluster.emit_forwarded_p50_us", unit: "us", better: "lower"},    // P: member Node.Forward(EMIT) in-process; 0 standalone
	{name: "cluster.advance_forwarded_p50_us", unit: "us", better: "lower"}, // P: member Node.Forward(ADVANCE) in-process; 0 standalone
	{name: "cluster.remote_query_ratio", unit: "ratio", better: "lower"},    // M: forwarded / all routed one-shots on the member; 0 standalone

	{name: "wire.frame_codec_ns", unit: "ns", better: "lower"},  // P: Encode+ReadFrame of a 1 KiB frame; 0 standalone
	{name: "wire.call_p50_us", unit: "us", better: "lower"},     // P: echo Call over loopback, 1 KiB; 0 standalone
	{name: "wire.bytes_per_op", unit: "bytes", better: "lower"}, // P: wire bytes per forwarded write, both directions and replication; 0 standalone

	{name: "oplog.append_sync_p50_us", unit: "us", better: "lower"},   // P: Log.Append of an EMIT body with fsync; 0 standalone
	{name: "oplog.append_nosync_p50_us", unit: "us", better: "lower"}, // P: Log.Append of an EMIT body without fsync; 0 standalone

	{name: "proc.cpu_user_s.rank0", unit: "s", better: "lower"}, // C: seed/standalone daemon user CPU over the measured phase
	{name: "proc.cpu_sys_s.rank0", unit: "s", better: "lower"},  // C: seed/standalone daemon system CPU
	{name: "proc.rss_mb.rank0", unit: "MB", better: "lower"},    // C: seed/standalone daemon VmHWM
	{name: "proc.cpu_user_s.rank1", unit: "s", better: "lower"}, // C: member daemon user CPU; 0 standalone
	{name: "proc.cpu_sys_s.rank1", unit: "s", better: "lower"},  // C: member daemon system CPU; 0 standalone
	{name: "proc.rss_mb.rank1", unit: "MB", better: "lower"},    // C: member daemon VmHWM; 0 standalone

	{name: "host.steal_ratio", unit: "ratio", better: "lower"},        // C: /proc/stat steal share over the measured phase (noise canary)
	{name: "host.psi_cpu_some_ratio", unit: "ratio", better: "lower"}, // C: /proc/pressure/cpu some-stall share of wall time (noise canary)
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},    // C: traced / untraced query_p50_us at reference speed, same quarter script
}

// quarterRun is one set-up, measured phase and reference check of the
// quarter-length script, with daemon tracing on or off.
func quarterRun(e env, sc *script, traced bool, nominal time.Duration) (*session, *measured, *verdict, error) {
	s, err := setUp(e, sc, traced)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	m, err := s.measure(nominal)
	if err != nil {
		return nil, nil, nil, err
	}
	v, err := s.verify()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reference check: %w", err)
	}
	return s, m, v, nil
}

// runTraced repeats the workload at a quarter of its rounds three ways:
// untraced (the overhead baseline), with the daemons tracing every request
// and a client span per op, and in-process with a span around each layer's
// public calls. End-to-end numbers never come from here.
func runTraced(e env, sp *spec, seed int64, seconds int) (*result, error) {
	sc := buildScript(sp.scaled(seconds, 4*nominalSeconds), seed)
	nominal := time.Duration(seconds) * time.Second / 4
	_, base, _, err := quarterRun(e, sc, false, nominal)
	if err != nil {
		return nil, fmt.Errorf("untraced baseline: %w", err)
	}
	s, m, v, err := quarterRun(e, sc, true, nominal)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	p, err := replay(e, sc)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: sp.name, Seed: seed, Seconds: seconds, Traced: true,
		Metrics: perLayerMetrics(s, base, m, p)}
	r.fill(m, v)
	if err := writeSpans(filepath.Join(e.outDir, "trace-"+sp.name+".json"), sp.name, seed, m, p); err != nil {
		return nil, err
	}
	return r, nil
}

// selective is the latency of every selective probe, both connections, in µs.
func selective(m *measured) []float64 {
	return usOf(merged(m.lead.hot, m.lead.cold, m.follower.hot, m.follower.cold))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayerMetrics(s *session, base, m *measured, p *replayed) map[string]value {
	lead, fol := m.lead, m.follower
	out := map[string]value{}
	set := func(name string, v float64) { out[name] = value{Value: v} }
	med := func(name string, samples []float64) {
		out[name] = value{Value: median(samples), N: len(samples), Tail: tailOf(samples).String()}
	}

	// C: client-side spans.
	med("client.emit_p50_us", usOf(lead.emit))
	med("client.advance_p50_us", usOf(lead.advance))
	med("client.poll_p50_us", usOf(lead.poll))
	med("client.query_hot_p50_us", usOf(merged(lead.hot, fol.hot)))
	med("client.query_cold_p50_us", usOf(merged(lead.cold, fol.cold)))
	local, fwd := usOf(merged(lead.local, fol.local)), usOf(merged(lead.forwarded, fol.forwarded))
	med("client.query_local_p50_us", local)
	med("client.query_forwarded_p50_us", fwd)
	hop := 0.0
	if len(local) > 0 && len(fwd) > 0 {
		hop = median(fwd) - median(local)
	}
	set("cluster.forward_hop_p50_us", hop)
	set("client.stalls_over_1s", float64(lead.stalls+fol.stalls))
	set("cluster.call_timeouts", float64(lead.timeouts+fol.timeouts))
	set("client.load_ktriples_per_s", s.loadKTPS)
	var leadBusy int64
	for _, sp := range lead.spans {
		leadBusy += sp.End - sp.Start
	}
	set("client.span_coverage_ratio", ratio(float64(leadBusy), float64(m.wall.Nanoseconds())))
	for rank := 0; rank < clusterNodes; rank++ {
		var u, sy, rss float64
		if rank < len(m.cpuUser) {
			u, sy, rss = m.cpuUser[rank], m.cpuSys[rank], m.hwmMB[rank]
		}
		set(fmt.Sprintf("proc.cpu_user_s.rank%d", rank), u)
		set(fmt.Sprintf("proc.cpu_sys_s.rank%d", rank), sy)
		set(fmt.Sprintf("proc.rss_mb.rank%d", rank), rss)
	}
	set("host.steal_ratio", m.steal)
	set("host.psi_cpu_some_ratio", m.psi)
	// Two runs minutes apart: compare them at reference speed.
	set("trace.overhead_ratio", ratio(median(selective(m))/m.yard.cpuFactor(), median(selective(base))/base.yard.cpuFactor()))

	// M: the registry of the daemon the connections talk to.
	ti := len(s.daemons) - 1
	b, a := m.before[ti], m.after[ti]
	ticks := float64(m.rounds)
	for _, st := range []string{"advance", "inject", "index", "dispatch", "trigger", "execute", "gc"} {
		set("core.stage_"+st+"_ms_per_tick", ratio(delta(b, a, "stage_"+st+"_latency_ns_sum")/1e6, ticks))
	}
	set("core.advance_stage_coverage_ratio",
		ratio(out["core.stage_advance_ms_per_tick"].Value, mean(msOf(lead.advance))))
	tuples := delta(b, a, "stream_tuples_total")
	set("stream.inject_ns_per_tuple", ratio(delta(b, a, "stream_inject_ns_total"), tuples))
	set("sindex.index_ns_per_tuple", ratio(delta(b, a, "stream_index_ns_total"), tuples))
	set("vts.prefix_wait_p50_us", histQuantile(b, a, "vts_prefix_wait_ns", 0.5)/1000)
	set("core.cq_delta_firing_ratio", ratio(delta(b, a, "cq_delta_firings_total"), delta(b, a, "cq_executions_total")))
	set("core.cq_rows_per_tick", ratio(delta(b, a, "cq_rows_total"), ticks))
	inPlace := a[`plan_mode_total{mode="in-place"}`] - b[`plan_mode_total{mode="in-place"}`]
	set("exec.plan_inplace_ratio", ratio(inPlace, delta(b, a, "plan_mode_total")))
	set("store.keys", family(a, "store_entries"))
	set("store.value_bytes", family(a, "store_value_bytes"))
	set("sindex.bytes", family(a, "sindex_bytes"))
	set("tstore.bytes", family(a, "tstore_bytes"))
	routed := delta(b, a, "cluster_queries_local_total") + delta(b, a, "cluster_queries_forwarded_total") +
		delta(b, a, "cluster_queries_scattered_total")
	set("cluster.remote_query_ratio", ratio(delta(b, a, "cluster_queries_forwarded_total"), routed))

	// P: the in-process replay.
	set("rdf.read_tuple_ns", p.readTupleNS)
	set("stream.emit_ns_per_tuple", p.streamEmitNS)
	set("server.emit_overhead_us_per_tuple", p.emitOverheadUS)
	med("sparql.parse_p50_us", p.parseUS)
	med("core.query_parsed_p50_us", p.queryParsedUS)
	med("core.scan_parsed_p50_us", p.scanParsedUS)
	out["server.query_overhead_p50_us"] = value{Value: median(p.loopbackSelUS) - median(p.queryParsedUS), N: len(p.loopbackSelUS)}
	set("store.prune_scan_ms", p.pruneEndMS)
	set("store.prune_scan_mid_ms", p.pruneMidMS)
	set("store.read_ns", p.storeReadNS)
	set("store.reads_per_query", p.readsPerQuery)
	set("oplog.bytes_per_tuple", p.oplogBytesPerTup)
	med("cluster.emit_forwarded_p50_us", p.emitForwardedUS)
	med("cluster.advance_forwarded_p50_us", p.advForwardedUS)
	set("wire.frame_codec_ns", p.frameCodecNS)
	med("wire.call_p50_us", p.wireCallUS)
	set("wire.bytes_per_op", p.wireBytesPerOp)
	med("oplog.append_sync_p50_us", p.appendSyncUS)
	med("oplog.append_nosync_p50_us", p.appendNoSyncUS)

	for _, d := range perLayer {
		v := out[d.name]
		v.Unit = d.unit
		out[d.name] = v
	}
	return out
}

// spanSummary is one span name's totals; self time is the span's duration
// minus the part its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize adds a parent "round" span per lead round (first child start to
// last child end) and computes self times: a round's self time is the
// driver's own work between the ops it issued.
func summarize(spans []span, parent string) ([]span, []spanSummary) {
	type agg struct{ first, last, child int64 }
	rounds := map[int]*agg{}
	sums := map[string]*spanSummary{}
	add := func(name string, total, self int64) {
		s := sums[name]
		if s == nil {
			s = &spanSummary{Name: name}
			sums[name] = s
		}
		s.Count++
		s.TotalMS += float64(total) / 1e6
		s.SelfMS += float64(self) / 1e6
	}
	for _, sp := range spans {
		d := sp.End - sp.Start
		add(sp.Name, d, d) // leaf spans: self time is the whole span
		if sp.Round < 0 {
			continue
		}
		a := rounds[sp.Round]
		if a == nil {
			a = &agg{first: sp.Start, last: sp.End}
			rounds[sp.Round] = a
		}
		if sp.Start < a.first {
			a.first = sp.Start
		}
		if sp.End > a.last {
			a.last = sp.End
		}
		a.child += d
	}
	ids := make([]int, 0, len(rounds))
	for id := range rounds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	all := append([]span(nil), spans...)
	for _, id := range ids {
		a := rounds[id]
		all = append(all, span{Name: parent, Conn: spans[0].Conn, Round: id, Start: a.first, End: a.last})
		add(parent, a.last-a.first, a.last-a.first-a.child)
	}
	var out []spanSummary
	for _, s := range sums {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return all, out
}

// writeSpans dumps the traced run's spans, kept in memory until now.
func writeSpans(path, workload string, seed int64, m *measured, p *replayed) error {
	type section struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Sections map[string]section `json:"sections"`
	}{workload, seed, map[string]section{}}
	put := func(key, parent string, spans []span) {
		if len(spans) == 0 {
			return
		}
		all, sum := summarize(spans, parent)
		doc.Sections[key] = section{sum, all}
	}
	put("lead", "round", m.lead.spans)
	put("follower", "round", m.follower.spans)
	put("replay", "replay.round", p.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
